#include "multifrontal/factorization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dense/potrf.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/executors.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

/// Dense reference Cholesky of the permuted matrix.
Matrix<double> dense_cholesky(const SparseSpd& a) {
  const index_t n = a.n();
  Matrix<double> dense(n, n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto rows = a.column_rows(j);
    const auto vals = a.column_values(j);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      dense(rows[t], j) = vals[t];
      dense(j, rows[t]) = vals[t];
    }
  }
  potrf<double>(dense.view());
  return dense;
}

TEST(FactorizationTest, MatchesDenseCholeskyOnGrid) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));

  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const FactorizeResult result = factorize(an, p1, ctx);

  const Matrix<double> reference = dense_cholesky(an.permuted);
  // Compare every stored factor entry with the dense reference.
  for (index_t s = 0; s < an.symbolic.num_supernodes(); ++s) {
    const SupernodeInfo& sn =
        an.symbolic.supernodes()[static_cast<std::size_t>(s)];
    const auto& panel = result.factor.panels[static_cast<std::size_t>(s)];
    for (index_t jc = 0; jc < sn.width(); ++jc) {
      const index_t global_col = sn.first_col + jc;
      // Diagonal block rows (lower triangle only).
      for (index_t ic = jc; ic < sn.width(); ++ic) {
        EXPECT_NEAR(panel(ic, jc), reference(sn.first_col + ic, global_col),
                    1e-9);
      }
      // Sub-diagonal rows.
      for (index_t t = 0; t < sn.num_update_rows(); ++t) {
        EXPECT_NEAR(panel(sn.width() + t, jc),
                    reference(sn.update_rows[static_cast<std::size_t>(t)],
                              global_col),
                    1e-9);
      }
    }
  }
}

TEST(FactorizationTest, CopyIsDeep) {
  // Panels are views into the factor's own store: a copy must get its own
  // store, so poisoning the copy leaves the original's solve unchanged.
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const Factorization original = factorize(an, p1, ctx).factor;
  const Matrix<double> b(p.matrix.n(), 1, 1.0);
  const Matrix<double> before = solve(an, original, b, 1);

  Factorization copied = original;
  Factorization assigned;
  assigned = original;
  for (Factorization* copy : {&copied, &assigned}) {
    EXPECT_FALSE(first_factor_difference(*copy, original).has_value());
    for (MatrixView<double>& panel : copy->panels) {
      panel(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    EXPECT_TRUE(std::isnan(solve(an, *copy, b, 1)(0, 0)));
  }

  const Matrix<double> after = solve(an, original, b, 1);
  for (index_t i = 0; i < p.matrix.n(); ++i) {
    ASSERT_EQ(after(i, 0), before(i, 0)) << "row " << i;
  }
}

TEST(FactorizationTest, TraceHasOneCallPerSupernode) {
  const GridProblem p = make_laplacian_3d(4, 3, 3);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const FactorizeResult result = factorize(an, p1, ctx);
  EXPECT_EQ(static_cast<index_t>(result.trace.calls.size()),
            an.symbolic.num_supernodes());
  EXPECT_GT(result.trace.total_time, 0.0);
  EXPECT_GT(result.trace.fu_time, 0.0);
  EXPECT_GT(result.trace.assembly_time, 0.0);
  EXPECT_LE(result.trace.fu_time, result.trace.total_time + 1e-12);
  for (const auto& call : result.trace.calls) {
    EXPECT_GE(call.m, 0);
    EXPECT_GE(call.k, 1);
    EXPECT_EQ(call.policy, 1);
    EXPECT_GT(call.t_total, 0.0);
  }
}

TEST(FactorizationTest, IndefiniteMatrixThrowsPivotError) {
  Coo coo(3);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1e-12);
  coo.add(2, 2, 1.0);
  coo.add(1, 0, 5.0);  // makes the 2x2 leading minor negative
  const SparseSpd a = coo.to_csc();
  const Analysis an = analyze(a, Permutation::identity(3));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  EXPECT_THROW(factorize(an, p1, ctx), NotPositiveDefiniteError);
}

TEST(FactorizationTest, DryRunChargesTimeWithoutNumerics) {
  const GridProblem p = make_laplacian_3d(5, 4, 3);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  ctx.numeric = false;
  const FactorizeResult dry = factorize(an, p1, ctx);
  EXPECT_TRUE(dry.factor.panels.empty());
  EXPECT_GT(dry.trace.total_time, 0.0);

  // The dry-run virtual time must equal the numeric run's virtual time.
  PolicyExecutor p1b(Policy::P1);
  FactorContext ctx2;
  const FactorizeResult wet = factorize(an, p1b, ctx2);
  EXPECT_NEAR(dry.trace.total_time, wet.trace.total_time,
              1e-9 * wet.trace.total_time);
}

TEST(FactorizationTest, GpuPoliciesProduceSameStructure) {
  const GridProblem p = make_laplacian_3d(4, 4, 2);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  for (Policy policy : {Policy::P2, Policy::P3, Policy::P4}) {
    PolicyExecutor exec(policy);
    FactorContext ctx;
    Device device;
    ctx.device = &device;
    const FactorizeResult result = factorize(an, exec, ctx);
    // Single-precision device arithmetic: looser tolerance.
    const Matrix<double> reference = dense_cholesky(an.permuted);
    const SupernodeInfo& last = an.symbolic.supernodes().back();
    const auto& panel = result.factor.panels.back();
    for (index_t jc = 0; jc < last.width(); ++jc) {
      for (index_t ic = jc; ic < last.width(); ++ic) {
        EXPECT_NEAR(panel(ic, jc),
                    reference(last.first_col + ic, last.first_col + jc),
                    1e-2)
            << policy_name(policy);
      }
    }
  }
}

TEST(FactorizationTest, FuTimeDominatesForLargerProblems) {
  // Paper Section II-A: the F-U operations consume ~90% of the runtime for
  // large matrices. Verify the simulated profile shows F-U dominance.
  const GridProblem p = make_laplacian_3d(10, 10, 8);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  ctx.numeric = false;
  const FactorizeResult result = factorize(an, p1, ctx);
  EXPECT_GT(result.trace.fu_time / result.trace.total_time, 0.6);
}

}  // namespace
}  // namespace mfgpu
