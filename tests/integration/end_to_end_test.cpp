// End-to-end pipeline tests: generator -> ordering -> symbolic ->
// multifrontal factorization under every dispatcher -> solve -> refine.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "autotune/hybrid.hpp"
#include "sparse/io.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(17);
    problem_ = new GridProblem(make_elasticity_3d(4, 4, 3, 3, rng));
    analysis_ = new Analysis(
        analyze(problem_->matrix, nested_dissection(problem_->coords)));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete analysis_;
  }

  static std::vector<double> ones_rhs() {
    std::vector<double> ones(static_cast<std::size_t>(problem_->matrix.n()),
                             1.0);
    std::vector<double> b(ones.size());
    problem_->matrix.multiply(ones, b);
    return b;
  }

  static GridProblem* problem_;
  static Analysis* analysis_;
};

GridProblem* EndToEndTest::problem_ = nullptr;
Analysis* EndToEndTest::analysis_ = nullptr;

TEST_F(EndToEndTest, EveryDispatcherSolvesTheSystem) {
  std::vector<std::unique_ptr<FuExecutor>> executors;
  for (Policy p : kAllPolicies) {
    executors.push_back(std::make_unique<PolicyExecutor>(p));
  }
  executors.push_back(std::make_unique<DispatchExecutor>(
      make_baseline_hybrid(paper_thresholds())));
  executors.push_back(
      std::make_unique<DispatchExecutor>(make_ideal_hybrid()));

  const auto b = ones_rhs();
  for (auto& exec : executors) {
    FactorContext ctx;
    Device device;
    ctx.device = &device;
    const FactorizeResult result = factorize(*analysis_, *exec, ctx);
    const RefineResult refined = solve_with_refinement(
        problem_->matrix, *analysis_, result.factor, b, 5, 1e-10);
    // All policies must solve to near machine precision after refinement.
    double b_norm = 0.0;
    for (double v : b) b_norm += v * v;
    b_norm = std::sqrt(b_norm);
    EXPECT_LT(refined.residual_norms.back(), 1e-8 * b_norm)
        << exec->name();
    for (double v : refined.x) EXPECT_NEAR(v, 1.0, 1e-5);
  }
}

TEST_F(EndToEndTest, GpuDispatchersBeatSerialInVirtualTime) {
  PolicyExecutor p1(Policy::P1);
  FactorContext serial_ctx;
  serial_ctx.numeric = false;
  const double t_serial =
      factorize(*analysis_, p1, serial_ctx).trace.total_time;

  DispatchExecutor ideal = make_ideal_hybrid();
  FactorContext hybrid_ctx;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  hybrid_ctx.device = &device;
  hybrid_ctx.numeric = false;
  const double t_hybrid =
      factorize(*analysis_, ideal, hybrid_ctx).trace.total_time;
  // This test problem is small (fronts of a 4x4x3 elasticity grid), so the
  // hybrid's edge is modest — but it must never lose to serial.
  EXPECT_LE(t_hybrid, t_serial * 1.0001);
}

TEST_F(EndToEndTest, TraceAccountsForEveryCall) {
  DispatchExecutor baseline = make_baseline_hybrid(paper_thresholds());
  FactorContext ctx;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  ctx.device = &device;
  ctx.numeric = false;
  const FactorizeResult result = factorize(*analysis_, baseline, ctx);
  EXPECT_EQ(static_cast<index_t>(result.trace.calls.size()),
            analysis_->symbolic.num_supernodes());
  double component_sum = 0.0;
  for (const auto& call : result.trace.calls) {
    component_sum += call.t_total;
  }
  EXPECT_NEAR(component_sum, result.trace.fu_time, 1e-12);
  EXPECT_LE(result.trace.fu_time, result.trace.total_time + 1e-9);
}

TEST_F(EndToEndTest, MatrixMarketRoundTripSolves) {
  // Write the problem out, read it back, factor and solve.
  std::stringstream buffer;
  write_matrix_market(buffer, problem_->matrix);
  const SparseSpd back = read_matrix_market(buffer);
  const Analysis an = analyze(back, minimum_degree(build_graph(back)));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const FactorizeResult result = factorize(an, p1, ctx);
  const auto b = ones_rhs();
  const auto x = solve(an, result.factor, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

}  // namespace
}  // namespace mfgpu
