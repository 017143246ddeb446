// Mixed-precision factor storage: the storage-side counterpart of the
// paper's single-precision GPU arithmetic — halve the factor memory, lose
// ~half the digits, recover them with refinement.
#include <gtest/gtest.h>

#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

struct BothFactors {
  Analysis analysis;
  Factorization f64;
  Factorization f32;
};

BothFactors factor_both(const SparseSpd& a) {
  Analysis an = analyze(a, minimum_degree(build_graph(a)));
  PolicyExecutor p1a(Policy::P1), p1b(Policy::P1);
  FactorContext c1, c2;
  FactorizeOptions opt64, opt32;
  opt32.precision = FactorPrecision::Float32;
  Factorization f64 = factorize(an, p1a, c1, opt64).factor;
  Factorization f32 = factorize(an, p1b, c2, opt32).factor;
  return BothFactors{std::move(an), std::move(f64), std::move(f32)};
}

TEST(MixedPrecisionTest, SinglePrecisionHalvesStorage) {
  const GridProblem p = make_laplacian_3d(6, 6, 4);
  const BothFactors both = factor_both(p.matrix);
  EXPECT_TRUE(both.f32.single_precision());
  EXPECT_FALSE(both.f64.single_precision());
  EXPECT_EQ(both.f32.storage_bytes() * 2, both.f64.storage_bytes());
  EXPECT_GT(both.f32.storage_bytes(), 0);
}

TEST(MixedPrecisionTest, Float32SolveLosesDigitsRefinementRecovers) {
  Rng rng(21);
  const GridProblem p = make_elasticity_3d(4, 4, 3, 3, rng);
  const BothFactors both = factor_both(p.matrix);
  std::vector<double> ones(static_cast<std::size_t>(p.matrix.n()), 1.0);
  std::vector<double> b(ones.size());
  p.matrix.multiply(ones, b);

  const auto x64 = solve(both.analysis, both.f64, b);
  const auto x32 = solve(both.analysis, both.f32, b);
  const double r64 = residual_norm(p.matrix, x64, b);
  const double r32 = residual_norm(p.matrix, x32, b);
  EXPECT_GT(r32, 100.0 * r64);  // visible precision loss

  const RefineResult refined =
      solve_with_refinement(p.matrix, both.analysis, both.f32, b, 6, 1e-12);
  EXPECT_LT(refined.residual_norms.back(), 1e-3 * r32);
  for (double v : refined.x) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(MixedPrecisionTest, NumPanelsConsistent) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const BothFactors both = factor_both(p.matrix);
  EXPECT_EQ(both.f32.num_panels(), both.f64.num_panels());
  EXPECT_EQ(both.f32.num_panels(),
            both.analysis.symbolic.num_supernodes());
}

TEST(MixedPrecisionTest, MismatchedFactorRejected) {
  const GridProblem small = make_laplacian_3d(3, 3, 2);
  const GridProblem big = make_laplacian_3d(4, 4, 3);
  const BothFactors both = factor_both(small.matrix);
  Analysis other = analyze(big.matrix, minimum_degree(build_graph(big.matrix)));
  std::vector<double> x(static_cast<std::size_t>(big.matrix.n()), 0.0);
  EXPECT_THROW(solve(other, both.f64, x), InvalidArgumentError);
}

}  // namespace
}  // namespace mfgpu
