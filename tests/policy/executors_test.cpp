#include "policy/executors.hpp"

#include <gtest/gtest.h>

#include "dense/potrf.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

/// Build a numerically real front: SPD (k+m)x(k+m) matrix; returns the
/// dense copy for reference and the front storage.
struct TestFront {
  Matrix<double> storage;  ///< (k+m) x (k+m)
  Matrix<double> reference;
  index_t m, k;

  FrontBlocks blocks() {
    FrontBlocks f;
    f.m = m;
    f.k = k;
    f.l1 = storage.view().block(0, 0, k, k);
    f.l2 = storage.view().block(k, 0, m, k);
    f.u = storage.view().block(k, k, m, m);
    return f;
  }
};

TestFront make_front(index_t m, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  const index_t s = m + k;
  Matrix<double> g(s, s);
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = 0; i < s; ++i) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  TestFront front;
  front.m = m;
  front.k = k;
  front.storage = Matrix<double>(s, s, 0.0);
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, g.view(), g.view(), 0.0,
               front.storage.view());
  for (index_t i = 0; i < s; ++i) front.storage(i, i) += static_cast<double>(s);
  front.reference = front.storage;
  // Reference: factor the k leading columns and form the Schur complement.
  auto ref = front.reference.view();
  potrf_unblocked<double>(ref.block(0, 0, k, k));
  if (m > 0) {
    trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                 1.0, ref.block(0, 0, k, k), ref.block(k, 0, m, k));
    syrk_lower<double>(-1.0, front.reference.view().block(k, 0, m, k), 1.0,
                       ref.block(k, k, m, m));
  }
  return front;
}

class PolicyExecutorTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyExecutorTest, FactorUpdateMatchesReference) {
  const Policy policy = policy_from_index(GetParam());
  TestFront front = make_front(30, 12, 100 + static_cast<std::uint64_t>(GetParam()));
  PolicyExecutor exec(policy);
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  const FuOutcome out = exec.execute(front.blocks(), ctx);

  // GPU policies run in float: tolerance scales with precision used.
  const double tol = (policy == Policy::P1) ? 1e-10 : 5e-3;
  EXPECT_LT(max_abs_diff<double>(front.storage.view(), front.reference.view()),
            tol)
      << policy_name(policy);
  EXPECT_EQ(out.record.policy, GetParam());
  EXPECT_EQ(out.record.m, 30);
  EXPECT_EQ(out.record.k, 12);
  EXPECT_GT(out.record.t_total, 0.0);
  EXPECT_GE(out.update_ready_at, 0.0);
}

TEST_P(PolicyExecutorTest, HandlesRootCaseMZero) {
  const Policy policy = policy_from_index(GetParam());
  TestFront front = make_front(0, 25, 200 + static_cast<std::uint64_t>(GetParam()));
  PolicyExecutor exec(policy);
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  EXPECT_NO_THROW(exec.execute(front.blocks(), ctx));
  const double tol = (policy == Policy::P1 || policy == Policy::P2 ||
                      policy == Policy::P3)
                         ? 1e-10
                         : 5e-3;
  EXPECT_LT(max_abs_diff<double>(front.storage.view(), front.reference.view()),
            tol);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyExecutorTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(PolicyExecutorTest, GpuPolicyWithoutDeviceThrows) {
  TestFront front = make_front(4, 4, 1);
  PolicyExecutor exec(Policy::P3);
  FactorContext ctx;  // no device
  EXPECT_THROW(exec.execute(front.blocks(), ctx), InvalidArgumentError);
}

TEST(PolicyExecutorTest, CopyComponentOnlyForGpuPolicies) {
  TestFront f1 = make_front(20, 10, 2);
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  EXPECT_DOUBLE_EQ(p1.execute(f1.blocks(), ctx).record.t_copy, 0.0);

  TestFront f3 = make_front(20, 10, 3);
  PolicyExecutor p3(Policy::P3);
  EXPECT_GT(p3.execute(f3.blocks(), ctx).record.t_copy, 0.0);
}

TEST(PolicyExecutorTest, OverlappedCopiesBeatSyncForModerateFronts) {
  // The §V-A2 optimization must actually pay off on a moderately large
  // front once the pinned pools are warm.
  ExecutorOptions sync_opts;
  sync_opts.overlapped_copies = false;
  const index_t m = 600, k = 300;

  PolicyTimer overlapped{ExecutorOptions{}};
  PolicyTimer synchronous{sync_opts};
  EXPECT_LT(overlapped.time(Policy::P3, FuCall{.m = m, .k = k}),
            synchronous.time(Policy::P3, FuCall{.m = m, .k = k}));
}

TEST(DispatchExecutorTest, RoutesByChooser) {
  TestFront front = make_front(10, 5, 4);
  DispatchExecutor dispatch(
      "test", [](const FuCall&) { return Policy::P2; });
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  EXPECT_EQ(dispatch.execute(front.blocks(), ctx).record.policy, 2);
}

TEST(DispatchExecutorTest, FallsBackToP1WithoutDevice) {
  TestFront front = make_front(10, 5, 5);
  DispatchExecutor dispatch(
      "test", [](const FuCall&) { return Policy::P4; });
  FactorContext ctx;  // CPU-only
  EXPECT_EQ(dispatch.execute(front.blocks(), ctx).record.policy, 1);
}

TEST(PolicyTimerTest, DeterministicTimes) {
  PolicyTimer a, b;
  for (Policy p : kAllPolicies) {
    const FuCall call{.m = 500, .k = 250};
    EXPECT_DOUBLE_EQ(a.time(p, call), b.time(p, call));
  }
}

TEST(PolicyTimerTest, PricesAreBitwiseIndependentOfHistory) {
  // The dry-run oracle is a pure function of (policy, m, k): a timer that
  // priced thousands of GPU calls first agrees bitwise with a fresh one.
  PolicyTimer fresh, busy;
  for (int i = 0; i < 1500; ++i) {
    const FuCall call{.m = 64 + 7 * (i % 300), .k = 32 + 3 * (i % 200)};
    (void)busy.time(Policy::P3, call);
    (void)busy.time(Policy::P4, call);
  }
  (void)busy.time_batched(FuCall{.m = 40, .k = 20}, 8);
  const std::pair<index_t, index_t> shapes[] = {
      {30, 15}, {400, 200}, {2000, 1000}, {8000, 4000}};
  for (const auto& [m, k] : shapes) {
    const FuCall call{.m = m, .k = k};
    for (Policy p : kAllPolicies) {
      EXPECT_EQ(fresh.time(p, call), busy.time(p, call))
          << m << "x" << k << " P" << static_cast<int>(p);
    }
    if (m <= 400) {  // batches hold small fronts only
      EXPECT_EQ(fresh.time_batched(call, 4), busy.time_batched(call, 4))
          << m << "x" << k << " batched";
    }
  }
}

TEST(PolicyTimerTest, RecordComponentsSumBelowTotal) {
  PolicyTimer timer;
  const FuCallRecord r = timer.record(Policy::P1, FuCall{.m = 800, .k = 400});
  EXPECT_NEAR(r.t_potrf + r.t_trsm + r.t_syrk, r.t_total, 1e-9);
}

}  // namespace
}  // namespace mfgpu
