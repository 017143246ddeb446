#include "autotune/hybrid.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    timer_ = new PolicyTimer();
    // Train the way the paper does: on the observed call distribution of a
    // real factorization (Section VI-C: "using a subset of the observed
    // timing data"). The call multiplicity of small fronts and the shapes
    // of the big ones are what teach the classifier the Fig. 12(b) map.
    Rng rng(31);
    const GridProblem p = make_elasticity_3d(10, 10, 8, 3, rng);
    const Analysis an =
        analyze(p.matrix, nested_dissection(p.coords));
    const auto dims = dims_from_symbolic(an.symbolic);
    dataset_ = new PolicyDataset(build_dataset(dims, *timer_));
    model_ = new TrainedPolicyModel(train_expected_time(*dataset_));
  }
  static void TearDownTestSuite() {
    delete timer_;
    delete dataset_;
    delete model_;
  }

  static PolicyTimer* timer_;
  static PolicyDataset* dataset_;
  static TrainedPolicyModel* model_;
};

PolicyTimer* HybridTest::timer_ = nullptr;
PolicyDataset* HybridTest::dataset_ = nullptr;
TrainedPolicyModel* HybridTest::model_ = nullptr;

TEST_F(HybridTest, IdealHybridPicksPerCallArgmin) {
  DispatchExecutor ideal = make_ideal_hybrid();
  FactorContext ctx;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  ctx.device = &device;
  ctx.numeric = false;
  const FuOutcome small = ideal.execute(make_shape_blocks(30, 15), ctx);
  EXPECT_EQ(small.record.policy, 1);
  const FuOutcome huge = ideal.execute(make_shape_blocks(8000, 4000), ctx);
  EXPECT_GE(huge.record.policy, 3);
}

/// Returns an ideal hybrid and keeps nothing else alive: every timer the
/// executor uses must be its own.
DispatchExecutor ideal_hybrid_from_helper() { return make_ideal_hybrid(); }

TEST_F(HybridTest, IdealHybridOwnsItsOracle) {
  DispatchExecutor ideal = ideal_hybrid_from_helper();
  FactorContext ctx;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  ctx.device = &device;
  ctx.numeric = false;
  const std::pair<index_t, index_t> shapes[] = {
      {30, 15}, {400, 200}, {2000, 1000}, {8000, 4000}, {400, 200}};
  for (const auto& [m, k] : shapes) {
    const FuCall call{.m = m, .k = k};
    const FuOutcome out = ideal.execute(make_shape_blocks(m, k), ctx);
    const Policy best = timer_->best_policy(call);
    EXPECT_EQ(out.record.policy, static_cast<int>(best)) << m << "x" << k;
    // Oracles with different histories agree up to the roundoff of their
    // absolute simulated clocks.
    const double seconds = timer_->time(best, call);
    EXPECT_NEAR(out.record.predicted_seconds, seconds, 1e-9 * seconds)
        << m << "x" << k;
  }
}

TEST_F(HybridTest, ModelTracksIdealClosely) {
  const HybridEvaluation eval =
      evaluate_hybrids(*dataset_, *model_, paper_thresholds());
  // Paper Section VI: model within ~2% of ideal; we allow 6% on the dense
  // generic grid. Baseline must not beat the ideal.
  EXPECT_LT(eval.model_regret(), 0.06);
  EXPECT_GE(eval.baseline_regret(), 0.0);
  EXPECT_GE(eval.model_accuracy, 0.6);
}

TEST_F(HybridTest, ModelBeatsBaseline) {
  // Paper abstract: "the model-based hybrid approach boosts the speedup by
  // 5-10% over the baseline hybrid scheme".
  const HybridEvaluation eval =
      evaluate_hybrids(*dataset_, *model_, paper_thresholds());
  EXPECT_LT(eval.total_model, eval.total_baseline * 1.005);
}

TEST_F(HybridTest, ModelHybridExecutorUsesClassifier) {
  DispatchExecutor exec = make_model_hybrid(*model_);
  FactorContext ctx;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  ctx.device = &device;
  ctx.numeric = false;
  const FuOutcome out = exec.execute(make_shape_blocks(50, 25), ctx);
  EXPECT_EQ(out.record.policy,
            static_cast<int>(model_->choose(50, 25)));
}

TEST_F(HybridTest, SmallCallsPreferP1LargePreferGpu) {
  // Fig. 12/13 qualitative structure: P1 in the low-(m,k) corner, GPU
  // policies for large k.
  EXPECT_EQ(model_->choose(20, 10), Policy::P1);
  const Policy big = model_->choose(9000, 4500);
  EXPECT_TRUE(big == Policy::P3 || big == Policy::P4);
}

}  // namespace
}  // namespace mfgpu
