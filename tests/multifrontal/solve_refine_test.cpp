#include <gtest/gtest.h>

#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

struct SolveSetup {
  Analysis analysis;
  Factorization factor;
};

SolveSetup factorize_p1(const SparseSpd& a) {
  Analysis an = analyze(a, minimum_degree(build_graph(a)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  FactorizeResult result = factorize(an, p1, ctx);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

std::vector<double> rhs_for_ones(const SparseSpd& a) {
  std::vector<double> ones(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(ones.size());
  a.multiply(ones, b);
  return b;
}

TEST(SolveTest, RecoverKnownSolutionOnLaplacian) {
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  const SolveSetup s = factorize_p1(p.matrix);
  const auto b = rhs_for_ones(p.matrix);
  const auto x = solve(s.analysis, s.factor, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(SolveTest, RecoverKnownSolutionOnElasticity) {
  Rng rng(4);
  const GridProblem p = make_elasticity_3d(3, 3, 3, 3, rng);
  const SolveSetup s = factorize_p1(p.matrix);
  const auto b = rhs_for_ones(p.matrix);
  const auto x = solve(s.analysis, s.factor, b);
  const double res = residual_norm(p.matrix, x, b);
  EXPECT_LT(res, 1e-8);
}

TEST(SolveTest, WorksUnderNestedDissection) {
  const GridProblem p = make_laplacian_3d(6, 6, 3);
  Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const FactorizeResult result = factorize(an, p1, ctx);
  const auto b = rhs_for_ones(p.matrix);
  const auto x = solve(an, result.factor, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(RefineTest, SinglePrecisionFactorLosesDigits) {
  // Factor with P3 (trsm/syrk in float on the simulated device): the raw
  // solve must be visibly less accurate than the double-precision factor.
  Rng rng(8);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  Analysis an = analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  const auto b = rhs_for_ones(p.matrix);

  PolicyExecutor p1(Policy::P1);
  FactorContext c1;
  const auto exact = factorize(an, p1, c1);
  const auto x1 = solve(an, exact.factor, b);

  PolicyExecutor p3(Policy::P3);
  FactorContext c3;
  Device device;
  c3.device = &device;
  const auto mixed = factorize(an, p3, c3);
  const auto x3 = solve(an, mixed.factor, b);

  EXPECT_GT(residual_norm(p.matrix, x3, b),
            10.0 * residual_norm(p.matrix, x1, b));
}

TEST(RefineTest, RefinementRecoversDoubleAccuracy) {
  // Paper Section III-B: "the lost accuracy could be readily regained by
  // one or two steps of iterative refinement".
  Rng rng(8);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  Analysis an = analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  const auto b = rhs_for_ones(p.matrix);

  PolicyExecutor p3(Policy::P3);
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  const auto mixed = factorize(an, p3, ctx);

  const RefineResult refined =
      solve_with_refinement(p.matrix, an, mixed.factor, b, 6, 1e-12);
  ASSERT_GE(refined.residual_norms.size(), 2u);
  EXPECT_LT(refined.residual_norms.back(),
            1e-4 * refined.residual_norms.front());
  EXPECT_LE(refined.iterations, 4);
}

TEST(RefineTest, AlreadyAccurateSolutionStopsEarly) {
  const GridProblem p = make_laplacian_3d(4, 4, 2);
  const SolveSetup s = factorize_p1(p.matrix);
  const auto b = rhs_for_ones(p.matrix);
  const RefineResult r =
      solve_with_refinement(p.matrix, s.analysis, s.factor, b, 5, 1e-10);
  EXPECT_LE(r.iterations, 1);
}

TEST(RefineTest, DivergingCorrectionReturnsBestIterate) {
  // Refine against 3M with a factor of M: every correction step diverges.
  // The result must revert to the initial (best) iterate, and the recorded
  // history must be truncated back to it — the diverged trailing norms are
  // dropped, so back() equals the returned x's actual residual and no entry
  // is duplicated.
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const SolveSetup s = factorize_p1(p.matrix);
  std::vector<double> scaled(p.matrix.values().begin(),
                             p.matrix.values().end());
  for (double& v : scaled) v *= 3.0;
  const SparseSpd a3(
      p.matrix.n(),
      std::vector<index_t>(p.matrix.col_ptr().begin(),
                           p.matrix.col_ptr().end()),
      std::vector<index_t>(p.matrix.row_idx().begin(),
                           p.matrix.row_idx().end()),
      std::move(scaled));
  const std::vector<double> b(static_cast<std::size_t>(p.matrix.n()), 1.0);

  const RefineResult r = solve_with_refinement(a3, s.analysis, s.factor, b);
  // A correction step was attempted (and discarded): the counter records the
  // work, the history does not keep the diverged norms.
  EXPECT_GE(r.iterations, 1);
  ASSERT_EQ(r.residual_norms.size(), 1u);
  // The returned iterate is the initial solve, bitwise.
  const auto x0 = solve(s.analysis, s.factor, b);
  ASSERT_EQ(r.x.size(), x0.size());
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_EQ(r.x[i], x0[i]) << "component " << i;
  }
  // back() restates the residual of the returned x — the old behaviour
  // appended best_norm after the revert, duplicating it and leaving the
  // diverged entries in place.
  EXPECT_DOUBLE_EQ(r.residual_norms.back(), residual_norm(a3, r.x, b));
}

TEST(SolveTest, SizeMismatchThrows) {
  const GridProblem p = make_laplacian_3d(3, 3, 2);
  const SolveSetup s = factorize_p1(p.matrix);
  std::vector<double> bad(3);
  EXPECT_THROW(solve(s.analysis, s.factor, bad), InvalidArgumentError);
}

TEST(SolveTest, OnePanelPerSupernode) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const SolveSetup s = factorize_p1(p.matrix);
  EXPECT_EQ(static_cast<index_t>(s.factor.panels.size()),
            s.analysis.symbolic.num_supernodes());
}

TEST(SolveTest, MismatchedFactorRejected) {
  const GridProblem small = make_laplacian_3d(3, 3, 2);
  const GridProblem big = make_laplacian_3d(4, 4, 3);
  const SolveSetup s = factorize_p1(small.matrix);
  Analysis other = analyze(big.matrix, minimum_degree(build_graph(big.matrix)));
  std::vector<double> x(static_cast<std::size_t>(big.matrix.n()), 0.0);
  EXPECT_THROW(solve(other, s.factor, x), InvalidArgumentError);
}

}  // namespace
}  // namespace mfgpu
