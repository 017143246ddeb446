// Fault detection and graceful degradation in DispatchExecutor: injected
// device faults must never corrupt results — the dispatcher retries on
// device once, then redoes the front on the host P1 path, charging all
// wasted time to the virtual clock.
#include <gtest/gtest.h>

#include <cstring>

#include "dense/potrf.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "policy/executors.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

struct TestFront {
  Matrix<double> storage;  ///< (k+m) x (k+m)
  Matrix<double> reference;
  index_t m, k;

  FrontBlocks blocks(index_t global_col = 0) {
    FrontBlocks f;
    f.m = m;
    f.k = k;
    f.global_col = global_col;
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

Device make_faulty_device(double kernel_rate, double transfer_rate,
                          double oom_rate, double death_rate,
                          std::uint64_t seed) {
  Device::Options options;
  options.faults.seed = seed;
  options.faults.transient_kernel_rate = kernel_rate;
  options.faults.transfer_corruption_rate = transfer_rate;
  options.faults.spurious_oom_rate = oom_rate;
  options.faults.device_death_rate = death_rate;
  return Device(options);
}

TEST(FaultToleranceTest, FaultedFrontsStillMatchReference) {
  // Aggressive rates over several seeds: every execution must survive and
  // return a numerically valid front (GPU float tolerance; host-fallback
  // fronts are exact in double and land well inside it).
  std::int64_t faults_seen = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Device device = make_faulty_device(0.3, 0.3, 0.3, 0.0, seed);
    DispatchExecutor dispatch("p3", [](const FuCall&) { return Policy::P3; });
    FactorContext ctx;
    ctx.device = &device;
    TestFront front = make_front(24, 12, 100 + seed);
    const FuOutcome out = dispatch.execute(front.blocks(), ctx);
    EXPECT_LT(
        max_abs_diff<double>(front.storage.view(), front.reference.view()),
        5e-3)
        << "seed " << seed;
    faults_seen += out.record.faults;
  }
  EXPECT_GT(faults_seen, 0) << "rates this high must fault at least once";
}

TEST(FaultToleranceTest, FallbackFrontIsExactDouble) {
  // Sticky death on the first device op: the attempt is wasted, the host P1
  // redo runs on the restored front — results exact in double precision.
  Device device = make_faulty_device(0.0, 0.0, 0.0, 0.9, 1);
  DispatchExecutor dispatch("p4", [](const FuCall&) { return Policy::P4; });
  FactorContext ctx;
  ctx.device = &device;
  TestFront front = make_front(16, 8, 7);
  const FuOutcome out = dispatch.execute(front.blocks(), ctx);
  EXPECT_EQ(out.record.policy, 1);
  EXPECT_TRUE(out.record.fell_back);
  EXPECT_GE(out.record.faults, 1);
  EXPECT_LT(max_abs_diff<double>(front.storage.view(), front.reference.view()),
            1e-10);
  EXPECT_TRUE(device.fault_injector().dead());
  EXPECT_GE(dispatch.fault_count(), 1);

  // The device is dead: the next front routes straight to P1 (no new
  // faults, no device traffic).
  const std::int64_t faults_before = dispatch.fault_count();
  TestFront next = make_front(12, 6, 8);
  const FuOutcome out2 = dispatch.execute(next.blocks(5), ctx);
  EXPECT_EQ(out2.record.policy, 1);
  EXPECT_FALSE(out2.record.fell_back);
  EXPECT_EQ(dispatch.fault_count(), faults_before);
  EXPECT_LT(max_abs_diff<double>(next.storage.view(), next.reference.view()),
            1e-10);
}

TEST(FaultToleranceTest, WastedAttemptTimeIsCharged) {
  // Transfer corruption is only detected once the attempt ran, so its cost
  // is real. The seed corrupts every transfer of the front's first 64 ops,
  // so both device attempts fault and the front is redone on the host P1
  // path — strictly more virtual time than the P1 execution alone. The
  // wasted attempts are charged, never rolled back.
  const double rate = 0.9;
  std::uint64_t seed = 0;
  for (;; ++seed) {
    ASSERT_LT(seed, 1'000'000u);
    bool every_op_hits = true;
    for (std::uint64_t op = 0; op < 64 && every_op_hits; ++op) {
      every_op_hits = FaultInjector::uniform(seed, /*scope=*/0, op) < rate;
    }
    if (every_op_hits) break;
  }
  Device faulty = make_faulty_device(0.0, rate, 0.0, 0.0, seed);
  DispatchExecutor dispatch("p4", [](const FuCall&) { return Policy::P4; });
  FactorContext ctx;
  ctx.device = &faulty;
  TestFront front = make_front(16, 8, 7);
  const FuOutcome faulted = dispatch.execute(front.blocks(), ctx);
  ASSERT_TRUE(faulted.record.fell_back);
  ASSERT_GE(faulted.record.faults, 1);
  EXPECT_GT(faulted.record.fault_wasted_seconds, 0.0);

  PolicyExecutor p1(Policy::P1);
  FactorContext clean_ctx;
  TestFront clean = make_front(16, 8, 7);
  const FuOutcome baseline = p1.execute(clean.blocks(), clean_ctx);
  EXPECT_GT(faulted.record.t_total, baseline.record.t_total);
}

TEST(FaultToleranceTest, GenuineIndefiniteMatrixStillThrows) {
  // Fault tolerance must not swallow a real NotPositiveDefiniteError: a
  // finite non-positive pivot is the matrix's fault, not the device's.
  const index_t k = 4;
  TestFront front;
  front.m = 0;
  front.k = k;
  front.storage = Matrix<double>(k, k, 0.0);
  for (index_t i = 0; i < k; ++i) front.storage(i, i) = 1.0;
  front.storage(k - 1, k - 1) = -1.0;
  front.reference = front.storage;

  // Tolerant through an enabled injector whose draws never fire on this
  // front (scope 0): the only failure left is the matrix's own.
  const double rate = 0.01;
  std::uint64_t seed = 0;
  for (;; ++seed) {
    ASSERT_LT(seed, 1'000'000u);
    bool no_op_hits = true;
    for (std::uint64_t op = 0; op < 64 && no_op_hits; ++op) {
      no_op_hits = FaultInjector::uniform(seed, /*scope=*/0, op) >= rate;
    }
    if (no_op_hits) break;
  }
  Device device = make_faulty_device(rate, rate, rate, 0.0, seed);
  ASSERT_TRUE(device.fault_injector().enabled());
  DispatchExecutor dispatch("p4", [](const FuCall&) { return Policy::P4; });
  FactorContext ctx;
  ctx.device = &device;
  EXPECT_THROW(dispatch.execute(front.blocks(), ctx),
               NotPositiveDefiniteError);
  EXPECT_EQ(device.fault_injector().stats().total_faults(), 0);
}

TEST(FaultToleranceTest, FaultFreeRunsAreByteIdenticalToTolerantOff) {
  // A dispatcher whose device injects no faults runs the plain policy
  // executor: the tolerant path must not perturb the numeric result at all.
  TestFront dispatched_front = make_front(18, 9, 21);
  TestFront direct_front = make_front(18, 9, 21);

  Device dispatch_device;
  ASSERT_FALSE(dispatch_device.fault_injector().enabled());
  DispatchExecutor dispatch("p3", [](const FuCall&) { return Policy::P3; });
  FactorContext dispatch_ctx;
  dispatch_ctx.device = &dispatch_device;
  dispatch.execute(dispatched_front.blocks(), dispatch_ctx);

  Device direct_device;
  PolicyExecutor direct(Policy::P3);
  FactorContext direct_ctx;
  direct_ctx.device = &direct_device;
  direct.execute(direct_front.blocks(), direct_ctx);

  const auto bytes = static_cast<std::size_t>(direct_front.storage.rows()) *
                     static_cast<std::size_t>(direct_front.storage.cols()) *
                     sizeof(double);
  EXPECT_EQ(std::memcmp(dispatched_front.storage.data(),
                        direct_front.storage.data(), bytes),
            0);
}

TEST(FaultToleranceTest, FaultsAreChargedToTheCallRecordAndMetrics) {
  obs::MetricsRegistry::global().clear();
  obs::enable();
  Device device = make_faulty_device(0.0, 0.9, 0.0, 0.0, 1);
  DispatchExecutor dispatch("p4", [](const FuCall&) { return Policy::P4; });
  FactorContext ctx;
  ctx.device = &device;
  TestFront front = make_front(16, 8, 7);
  const FuOutcome out = dispatch.execute(front.blocks(), ctx);
  obs::disable();
  ASSERT_GE(out.record.faults, 1);

  // Every fault the call survived is charged to its record by kind. The
  // first corrupted P4 attempt is retried on-device rather than falling
  // back, so a fallback (at most one, after the last attempt) leaves at
  // least one retried fault; the failed attempts' cost is recorded as
  // wasted.
  EXPECT_EQ(out.record.m, 16);
  EXPECT_EQ(out.record.k, 8);
  EXPECT_TRUE(out.record.dispatched);
  const auto corrupted =
      static_cast<std::size_t>(FaultKind::TransferCorruption);
  EXPECT_EQ(out.record.fault_kinds[corrupted], out.record.faults);
  EXPECT_GT(out.record.faults - (out.record.fell_back ? 1 : 0), 0);
  EXPECT_GT(out.record.fault_wasted_seconds, 0.0);

  auto& metrics = obs::MetricsRegistry::global();
  EXPECT_GE(metrics.counter("fault.detected.transfer_corruption"), 1.0);
  EXPECT_GE(metrics.counter("fault.retries"), 1.0);
  EXPECT_GT(metrics.counter("fault.wasted_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("fault.wasted_seconds"),
                   out.record.fault_wasted_seconds);
  if (out.record.fell_back) {
    EXPECT_GE(metrics.counter("fault.fallbacks"), 1.0);
  }
  obs::MetricsRegistry::global().clear();
}

TEST(FaultToleranceTest, SpuriousOomFallsBackInsteadOfAborting) {
  Device device = make_faulty_device(0.0, 0.0, 0.9, 0.0, 4);
  DispatchExecutor dispatch("p2", [](const FuCall&) { return Policy::P2; });
  FactorContext ctx;
  ctx.device = &device;
  TestFront front = make_front(14, 7, 30);
  FuOutcome out;
  ASSERT_NO_THROW(out = dispatch.execute(front.blocks(), ctx));
  EXPECT_GE(out.record.faults, 1);
  EXPECT_LT(max_abs_diff<double>(front.storage.view(), front.reference.view()),
            5e-3);
}

TEST(FaultToleranceTest, CorruptedProductDownloadIsRetriedToTheFaultFreeFront) {
  // The update product is the one device block the host consumes without
  // downloading it into the front: a corruption of its device-to-host copy
  // must still surface in U, be detected, and be retried on device. Each
  // case names the op index of the product's download within the front's
  // fault scope (allocs, pinned acquires, copies and launches each draw one
  // op; pool warm-up draws none). With only the transfer rate set, the seed
  // is chosen so that this op is the only draw below the rate among the
  // first 64 — both attempts' worth — so no other transfer is corrupted.
  struct Case {
    const char* name;
    Policy policy;
    bool overlapped;
    bool copy_optimized;
    std::uint64_t product_op;
  };
  const Case cases[] = {
      // alloc l2, prod; pin l2, prod; h2d l2; syrk; d2h prod
      {"p2.overlapped", Policy::P2, true, false, 6},
      // alloc l2, prod; h2d l2; syrk; d2h prod
      {"p2.sync", Policy::P2, false, false, 4},
      // alloc l1, l2, prod; pin l1, l2, prod; h2d l2, l1; trsm; d2h l2;
      // syrk; d2h prod
      {"p3.overlapped", Policy::P3, true, false, 11},
      // alloc l1, l2, prod; h2d l1, l2; trsm; d2h l2; syrk; d2h prod
      {"p3.sync", Policy::P3, false, false, 8},
      // alloc panel, prod; pin panel, prod; h2d l1, l2; potrf, trsm, syrk
      // (one panel step: k <= width); d2h l1, l2, prod
      {"p4.async", Policy::P4, true, false, 11},
      // as p4.async, but the product comes back first
      {"p4.copy_optimized", Policy::P4, true, true, 9},
      // alloc panel, prod; h2d l1, l2; potrf, trsm, syrk; d2h l1, l2, prod
      {"p4.sync", Policy::P4, false, false, 9},
  };
  const double rate = 0.05;
  const std::uint64_t scope = 0;  // the front's global column
  for (const Case& c : cases) {
    std::uint64_t seed = 0;
    for (;; ++seed) {
      ASSERT_LT(seed, 1'000'000u) << c.name;
      bool only_product = true;
      for (std::uint64_t op = 0; op < 64 && only_product; ++op) {
        const bool hit = FaultInjector::uniform(seed, scope, op) < rate;
        only_product = hit == (op == c.product_op);
      }
      if (only_product) break;
    }
    ExecutorOptions options;
    options.overlapped_copies = c.overlapped;
    options.copy_optimized_p4 = c.copy_optimized;
    const auto run = [&](Device& device, TestFront& front) {
      DispatchExecutor dispatch(
          c.name, [&](const FuCall&) { return c.policy; }, options);
      FactorContext ctx;
      ctx.device = &device;
      return dispatch.execute(front.blocks(), ctx);
    };

    Device clean_device;
    TestFront clean = make_front(16, 8, 41);
    run(clean_device, clean);

    Device device = make_faulty_device(0.0, rate, 0.0, 0.0, seed);
    TestFront front = make_front(16, 8, 41);
    const FuOutcome out = run(device, front);
    const auto corrupted =
        static_cast<std::size_t>(FaultKind::TransferCorruption);
    EXPECT_EQ(device.fault_injector().stats().transfer_corruption, 1)
        << c.name;
    EXPECT_GE(out.record.fault_kinds[corrupted], 1) << c.name;
    EXPECT_EQ(out.record.faults, 1) << c.name;
    EXPECT_FALSE(out.record.fell_back) << c.name;
    EXPECT_EQ(out.record.policy, static_cast<int>(c.policy)) << c.name;
    const auto bytes = static_cast<std::size_t>(front.storage.rows()) *
                       static_cast<std::size_t>(front.storage.cols()) *
                       sizeof(double);
    EXPECT_EQ(std::memcmp(front.storage.data(), clean.storage.data(), bytes),
              0)
        << c.name << ": the retried front differs from the fault-free one";
  }
}

}  // namespace
}  // namespace mfgpu
