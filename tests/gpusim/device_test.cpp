#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gpusim/gpublas.hpp"

namespace mfgpu {
namespace {

TEST(DeviceTest, AllocateChargesOnceWithPooling) {
  Device dev;
  SimClock host;
  dev.allocate(100, 100, "front", host);
  const double after_first = host.now();
  EXPECT_GT(after_first, 0.0);
  dev.allocate(80, 80, "front", host);  // fits the high-water mark
  EXPECT_DOUBLE_EQ(host.now(), after_first);
}

TEST(DeviceTest, SyncCopyBlocksHost) {
  Device dev;
  SimClock host;
  DeviceMatrix d = dev.allocate(100, 100, "x", host);
  Matrix<double> h(100, 100, 1.5);
  const double t0 = host.now();
  const double duration = dev.copy_to_device_sync(h.view(), d, 0, 0, host);
  EXPECT_NEAR(host.now() - t0, duration, 1e-12);
  EXPECT_FLOAT_EQ(d.data(0, 0), 1.5f);
}

TEST(DeviceTest, AsyncCopyOnlyPaysEnqueue) {
  Device dev;
  SimClock host;
  DeviceMatrix d = dev.allocate(200, 200, "x", host);
  dev.acquire_pinned("x", 200 * 200 * 4, host);
  Matrix<double> h(200, 200, 2.0);
  const double t0 = host.now();
  const double duration =
      dev.copy_to_device_async(h.view(), d, 0, 0, dev.h2d_stream(), host);
  // Host pays only the enqueue overhead, far less than the copy itself.
  EXPECT_LT(host.now() - t0, duration);
  EXPECT_GT(d.available_at, host.now());
  dev.synchronize_stream(dev.h2d_stream(), host);
  EXPECT_GE(host.now(), d.available_at);
}

TEST(DeviceTest, KernelWaitsForInputCopy) {
  Device dev;
  SimClock host;
  DeviceMatrix a = dev.allocate(50, 20, "a", host);
  DeviceMatrix c = dev.allocate(50, 50, "c", host);
  dev.acquire_pinned("a", 50 * 20 * 4, host);
  Matrix<double> h(50, 20, 0.5);
  dev.copy_to_device_async(h.view(), a, 0, 0, dev.h2d_stream(), host);
  const double copy_done = a.available_at;
  GpuExec exec{&dev, &dev.compute_stream(), &host};
  gpu_syrk(exec, 1.0f, dev_whole(a), dev_whole(c));
  // The kernel (on another stream) cannot finish before its input arrives.
  EXPECT_GT(c.available_at, copy_done);
}

TEST(DeviceTest, CopyBackConvertsToDouble) {
  Device dev;
  SimClock host;
  DeviceMatrix d = dev.allocate(4, 4, "x", host);
  Matrix<double> in(4, 4, 3.25), out(4, 4, 0.0);
  dev.copy_to_device_sync(in.view(), d, 0, 0, host);
  dev.copy_from_device_sync(d, 0, 0, out.view(), host);
  EXPECT_DOUBLE_EQ(out(2, 3), 3.25);
}

TEST(DeviceTest, BlockCopiesTargetSubmatrices) {
  Device dev;
  SimClock host;
  DeviceMatrix d = dev.allocate(6, 4, "x", host);
  Matrix<double> top(2, 4, 1.0), bottom(4, 4, 2.0);
  dev.copy_to_device_sync(top.view(), d, 0, 0, host);
  dev.copy_to_device_sync(bottom.view(), d, 2, 0, host);
  EXPECT_FLOAT_EQ(d.data(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(d.data(3, 3), 2.0f);
}

TEST(DeviceTest, DryRunSkipsNumerics) {
  Device::Options opt;
  opt.numeric = false;
  Device dev(opt);
  SimClock host;
  DeviceMatrix d = dev.allocate(1000, 1000, "x", host);
  EXPECT_EQ(d.data.rows(), 0);  // no storage materialized
  EXPECT_EQ(d.rows(), 1000);    // but logical shape kept
  // Copies with shape-only host views still advance the clocks.
  MatrixView<const double> shape(nullptr, 1000, 1000, 1000);
  const double t0 = host.now();
  dev.copy_to_device_sync(shape, d, 0, 0, host);
  EXPECT_GT(host.now(), t0);
}

TEST(DeviceTest, DeviceMemoryCapacityEnforced) {
  Device::Options opt;
  opt.memory_bytes = 1000;
  opt.numeric = false;
  Device dev(opt);
  SimClock host;
  EXPECT_THROW(dev.allocate(1000, 1000, "big", host), DeviceOutOfMemoryError);
}

TEST(DeviceTest, BytesTransferredAccumulates) {
  Device dev;
  SimClock host;
  DeviceMatrix d = dev.allocate(10, 10, "x", host);
  Matrix<double> h(10, 10, 0.0);
  dev.copy_to_device_sync(h.view(), d, 0, 0, host);
  EXPECT_DOUBLE_EQ(dev.bytes_transferred(), 10 * 10 * 4.0);
}

TEST(DeviceTest, ResetRestoresCleanState) {
  Device dev;
  SimClock host;
  dev.allocate(10, 10, "x", host);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.bytes_transferred(), 0.0);
  EXPECT_DOUBLE_EQ(dev.compute_stream().ready_at(), 0.0);
  EXPECT_EQ(dev.device_pool_stats().acquire_calls, 0);
}

// One F-U call has only one policy's slots live, so the policies share
// storage by slot role while each slot keeps its own pricing.
TEST(DeviceTest, PolicySlotsShareStorageByRole) {
  Device dev;
  SimClock host;
  const DeviceMatrix p2 = dev.allocate(40, 40, "p2.prod", host);
  const DeviceMatrix p3 = dev.allocate(30, 30, "p3.prod", host);
  EXPECT_EQ(p3.data.data(), p2.data.data());
  EXPECT_EQ(dev.device_pool_stats().charged_allocations, 2);
  const DeviceMatrix batch = dev.allocate(30, 30, "batch.prod", host);
  const DeviceMatrix panel = dev.allocate(30, 30, "p4.panel", host);
  EXPECT_NE(batch.data.data(), p2.data.data());
  EXPECT_NE(panel.data.data(), p2.data.data());
}

TEST(DeviceTest, ReserveChargesThePoolLikeAllocate) {
  Device allocating, reserving;
  SimClock a_host, r_host;
  allocating.allocate(300, 200, "slot", a_host);
  const double charged = reserving.reserve(300, 200, "slot", r_host);
  EXPECT_GT(charged, 0.0);
  EXPECT_DOUBLE_EQ(r_host.now(), charged);
  EXPECT_DOUBLE_EQ(r_host.now(), a_host.now());
  // A later allocate in the reserved slot fits the high-water mark.
  EXPECT_DOUBLE_EQ(reserving.reserve(100, 100, "slot", r_host), 0.0);
  allocating.allocate(100, 100, "slot", a_host);
  const PoolStats& a = allocating.device_pool_stats();
  const PoolStats& r = reserving.device_pool_stats();
  EXPECT_EQ(a.acquire_calls, r.acquire_calls);
  EXPECT_EQ(a.charged_allocations, r.charged_allocations);
  EXPECT_EQ(a.peak_bytes, r.peak_bytes);
  EXPECT_EQ(a.current_high_water_bytes, r.current_high_water_bytes);
}

TEST(DeviceTest, NullDestinationDownloadIsPricedButReadInPlace) {
  // A device-to-host copy into a null-data view costs exactly what a real
  // copy costs (clock, stream, bytes) and leaves the data on the device.
  for (const bool async : {false, true}) {
    Device copying, in_place;
    SimClock c_host, p_host;
    DeviceMatrix c_d = copying.allocate(30, 20, "x", c_host);
    DeviceMatrix p_d = in_place.allocate(30, 20, "x", p_host);
    c_d.data(4, 5) = p_d.data(4, 5) = 2.5f;
    Matrix<double> out(30, 20, 0.0);
    const MatrixView<double> none(nullptr, 30, 20, 30);
    double c_time = 0.0, p_time = 0.0;
    if (async) {
      copying.acquire_pinned("x", 30 * 20 * 4, c_host);
      in_place.acquire_pinned("x", 30 * 20 * 4, p_host);
      c_time = copying.copy_from_device_async(c_d, 0, 0, out.view(),
                                              copying.d2h_stream(), c_host);
      p_time = in_place.copy_from_device_async(p_d, 0, 0, none,
                                               in_place.d2h_stream(), p_host);
    } else {
      c_time = copying.copy_from_device_sync(c_d, 0, 0, out.view(), c_host);
      p_time = in_place.copy_from_device_sync(p_d, 0, 0, none, p_host);
    }
    EXPECT_DOUBLE_EQ(out(4, 5), 2.5);
    EXPECT_DOUBLE_EQ(p_time, c_time);
    EXPECT_DOUBLE_EQ(p_host.now(), c_host.now());
    EXPECT_DOUBLE_EQ(in_place.d2h_stream().ready_at(),
                     copying.d2h_stream().ready_at());
    EXPECT_DOUBLE_EQ(in_place.bytes_transferred(),
                     copying.bytes_transferred());
    EXPECT_FLOAT_EQ(p_d.data(4, 5), 2.5f);
  }
}

TEST(DeviceTest, CorruptedInPlaceDownloadPoisonsTheDeviceBlock) {
  // With no host copy to poison, an injected corruption lands in the
  // device block the host reads next.
  const double rate = 0.9;
  std::uint64_t seed = 0;
  while (FaultInjector::uniform(seed, 0, 0) >= rate) ++seed;
  Device::Options options;
  options.faults.seed = seed;
  options.faults.transfer_corruption_rate = rate;
  Device dev(options);
  SimClock host;
  DeviceMatrix d;
  {
    FaultSuppressionGuard quiet(&dev.fault_injector());
    d = dev.allocate(8, 8, "x", host);
  }
  d.data(3, 1) = 1.0f;
  dev.fault_injector().begin_scope(0);
  dev.copy_from_device_sync(d, 2, 1, MatrixView<double>(nullptr, 4, 4, 4),
                            host);
  EXPECT_EQ(dev.fault_injector().stats().transfer_corruption, 1);
  EXPECT_TRUE(std::isnan(d.data(2, 1)));
  EXPECT_FLOAT_EQ(d.data(3, 1), 1.0f);  // only the block's first element
}

}  // namespace
}  // namespace mfgpu
