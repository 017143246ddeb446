#include "policy/p4_gpu_potrf.hpp"

#include <gtest/gtest.h>

#include "dense/potrf.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

TEST(P4PanelWidthTest, AutoWidthClampedAndMonotone) {
  EXPECT_EQ(p4_auto_panel_width(10), 64);       // clamp low
  EXPECT_EQ(p4_auto_panel_width(3200), 100);    // k/32
  EXPECT_EQ(p4_auto_panel_width(100000), 512);  // clamp high
  EXPECT_LE(p4_auto_panel_width(5000), p4_auto_panel_width(10000));
}

class P4FactorTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(P4FactorTest, MatchesHostFactorization) {
  const auto [mi, ki] = GetParam();
  const index_t m = mi, k = ki;
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k));
  const index_t s = m + k;

  // SPD test matrix.
  Matrix<double> g(s, s);
  for (index_t j = 0; j < s; ++j) {
    for (index_t i = 0; i < s; ++i) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix<double> a(s, s, 0.0);
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, g.view(), g.view(), 0.0,
               a.view());
  for (index_t i = 0; i < s; ++i) a(i, i) += static_cast<double>(s);

  // Host reference: factor panel, form L2 L2^T product.
  Matrix<double> ref = a;
  potrf_unblocked<double>(ref.view().block(0, 0, k, k));
  Matrix<double> prod_ref(m, m, 0.0);
  if (m > 0) {
    trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                 1.0, ref.view().block(0, 0, k, k), ref.view().block(k, 0, m, k));
    syrk_lower<double>(1.0, ref.view().block(k, 0, m, k), 0.0,
                       prod_ref.view());
  }

  // Device run.
  Device device;
  SimClock host;
  DeviceMatrix panel = device.allocate(s, k, "panel", host);
  DeviceMatrix prod = device.allocate(m, m, "prod", host);
  device.copy_to_device_sync(a.view().block(0, 0, s, k), panel, 0, 0, host);
  GpuExec exec{&device, &device.compute_stream(), &host};
  const P4KernelTimes times = p4_factor_on_gpu(
      exec, panel, (m > 0) ? &prod : nullptr, m, k, /*panel_width=*/8, 0);

  EXPECT_GT(times.potrf, 0.0);
  if (k > 8) {
    EXPECT_GT(times.trsm + times.syrk, 0.0);
  }

  // Compare factor panel (float precision).
  Matrix<double> panel_back(s, k, 0.0);
  device.copy_from_device_sync(panel, 0, 0, panel_back.view(), host);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = j; i < s; ++i) {
      EXPECT_NEAR(panel_back(i, j), ref(i, j), 5e-3) << i << "," << j;
    }
  }
  if (m > 0) {
    Matrix<double> prod_back(m, m, 0.0);
    device.copy_from_device_sync(prod, 0, 0, prod_back.view(), host);
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = j; i < m; ++i) {
        EXPECT_NEAR(prod_back(i, j), prod_ref(i, j), 5e-2);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, P4FactorTest,
                         ::testing::Values(std::make_pair(0, 16),
                                           std::make_pair(0, 23),
                                           std::make_pair(10, 8),
                                           std::make_pair(20, 24),
                                           std::make_pair(33, 17),
                                           std::make_pair(7, 40)));

TEST(P4FactorTest, NonPositivePivotReportsGlobalColumn) {
  Device device;
  SimClock host;
  DeviceMatrix panel = device.allocate(4, 4, "panel", host);
  Matrix<double> bad(4, 4, 0.0);
  bad(0, 0) = 1.0;
  bad(1, 1) = -1.0;
  bad(2, 2) = 1.0;
  bad(3, 3) = 1.0;
  device.copy_to_device_sync(bad.view(), panel, 0, 0, host);
  GpuExec exec{&device, &device.compute_stream(), &host};
  try {
    p4_factor_on_gpu(exec, panel, nullptr, 0, 4, 2, /*global_col=*/50);
    FAIL() << "expected pivot failure";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_EQ(e.column(), 51);
  }
}

TEST(P4FactorTest, PanelTimesScaleWithWork) {
  // Dry device: timing only; more panels -> more accumulated potrf time.
  Device::Options opt;
  opt.numeric = false;
  Device device(opt);
  SimClock host;
  DeviceMatrix small_panel = device.allocate(1000, 500, "p", host);
  DeviceMatrix small_prod = device.allocate(500, 500, "u", host);
  GpuExec exec{&device, &device.compute_stream(), &host};
  const P4KernelTimes t1 =
      p4_factor_on_gpu(exec, small_panel, &small_prod, 500, 500, 128, 0);

  DeviceMatrix big_panel = device.allocate(2000, 1000, "p2", host);
  DeviceMatrix big_prod = device.allocate(1000, 1000, "u2", host);
  const P4KernelTimes t2 =
      p4_factor_on_gpu(exec, big_panel, &big_prod, 1000, 1000, 128, 0);
  EXPECT_GT(t2.total(), t1.total());
}

}  // namespace
}  // namespace mfgpu
