#include "gpusim/gpublas.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>

#include "dense/potrf.hpp"
#include "sparse/dense_convert.hpp"

namespace mfgpu {
namespace {

struct GpuFixture {
  Device device;
  SimClock host;
  GpuExec compute() { return GpuExec{&device, &device.compute_stream(), &host}; }
};

TEST(GpublasTest, SyrkMatchesHostReference) {
  GpuFixture fx;
  Rng rng(1);
  const Matrix<double> a = random_dense(20, 8, rng);
  DeviceMatrix a_d = fx.device.allocate(20, 8, "a", fx.host);
  DeviceMatrix c_d = fx.device.allocate(20, 20, "c", fx.host);
  fx.device.copy_to_device_sync(a.view(), a_d, 0, 0, fx.host);
  const double duration = gpu_syrk(fx.compute(), 1.0f, dev_whole(a_d),
                                   dev_whole(c_d));
  EXPECT_GT(duration, 0.0);

  Matrix<double> c_back(20, 20, 0.0);
  fx.device.copy_from_device_sync(c_d, 0, 0, c_back.view(), fx.host);
  Matrix<double> reference(20, 20, 0.0);
  syrk_lower<double>(1.0, a.view(), 1.0, reference.view());
  for (index_t j = 0; j < 20; ++j) {
    for (index_t i = j; i < 20; ++i) {
      EXPECT_NEAR(c_back(i, j), reference(i, j), 1e-4);
    }
  }
}

TEST(GpublasTest, TrsmSolvesAgainstFactoredBlock) {
  GpuFixture fx;
  Rng rng(2);
  Matrix<double> l = random_spd_dense(10, rng);
  potrf<double>(l.view());
  // potrf leaves the strict upper triangle untouched; clear it so the
  // dense reference product below uses a true triangular matrix.
  for (index_t j = 1; j < 10; ++j) {
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  }
  const Matrix<double> x_true = random_dense(15, 10, rng);
  Matrix<double> b(15, 10, 0.0);
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, x_true.view(), l.view(),
               0.0, b.view());

  DeviceMatrix l_d = fx.device.allocate(10, 10, "l", fx.host);
  DeviceMatrix b_d = fx.device.allocate(15, 10, "b", fx.host);
  fx.device.copy_to_device_sync(l.view(), l_d, 0, 0, fx.host);
  fx.device.copy_to_device_sync(b.view(), b_d, 0, 0, fx.host);
  gpu_trsm(fx.compute(), dev_whole(l_d), dev_whole(b_d));

  Matrix<double> solved(15, 10, 0.0);
  fx.device.copy_from_device_sync(b_d, 0, 0, solved.view(), fx.host);
  EXPECT_LT(max_abs_diff<double>(solved.view(), x_true.view()), 1e-3);
}

TEST(GpublasTest, GemmNtAccumulates) {
  GpuFixture fx;
  Rng rng(3);
  const Matrix<double> a = random_dense(6, 4, rng);
  const Matrix<double> b = random_dense(5, 4, rng);
  DeviceMatrix a_d = fx.device.allocate(6, 4, "a", fx.host);
  DeviceMatrix b_d = fx.device.allocate(5, 4, "b", fx.host);
  DeviceMatrix c_d = fx.device.allocate(6, 5, "c", fx.host);
  fx.device.copy_to_device_sync(a.view(), a_d, 0, 0, fx.host);
  fx.device.copy_to_device_sync(b.view(), b_d, 0, 0, fx.host);
  gpu_gemm_nt(fx.compute(), -1.0f, dev_whole(a_d), dev_whole(b_d),
              dev_whole(c_d));

  Matrix<double> c_back(6, 5, 0.0);
  fx.device.copy_from_device_sync(c_d, 0, 0, c_back.view(), fx.host);
  Matrix<double> reference(6, 5, 0.0);
  gemm<double>(Trans::NoTrans, Trans::Transpose, -1.0, a.view(), b.view(), 1.0,
               reference.view());
  EXPECT_LT(max_abs_diff<double>(c_back.view(), reference.view()), 1e-5);
}

TEST(GpublasTest, PotrfOnDeviceFactorsSpdBlock) {
  GpuFixture fx;
  Rng rng(4);
  const Matrix<double> a = random_spd_dense(12, rng);
  DeviceMatrix a_d = fx.device.allocate(12, 12, "a", fx.host);
  fx.device.copy_to_device_sync(a.view(), a_d, 0, 0, fx.host);
  gpu_potrf(fx.compute(), dev_whole(a_d));

  Matrix<double> l(12, 12, 0.0);
  fx.device.copy_from_device_sync(a_d, 0, 0, l.view(), fx.host);
  Matrix<double> reference = a;
  potrf_unblocked<double>(reference.view());
  for (index_t j = 0; j < 12; ++j) {
    for (index_t i = j; i < 12; ++i) {
      EXPECT_NEAR(l(i, j), reference(i, j), 1e-3);
    }
  }
}

TEST(GpublasTest, KernelChainsSerializeOnOneStream) {
  GpuFixture fx;
  DeviceMatrix a = fx.device.allocate(600, 300, "a", fx.host);
  DeviceMatrix c = fx.device.allocate(600, 600, "c", fx.host);
  // Contents are zero; syrk on zeros is fine numerically.
  const double d1 = gpu_syrk(fx.compute(), 1.0f, dev_whole(a), dev_whole(c));
  const double ready_after_first = fx.device.compute_stream().ready_at();
  const double d2 = gpu_syrk(fx.compute(), 1.0f, dev_whole(a), dev_whole(c));
  EXPECT_NEAR(fx.device.compute_stream().ready_at(),
              ready_after_first + d2, 1e-12);
  EXPECT_GT(d1, 0.0);
}

TEST(GpublasTest, HostOverlapsWithAsyncCopy) {
  // The §V-A2 pattern: while potrf runs on the host, L2 streams to the
  // device. Total elapsed must be close to max(host work, copy), not sum.
  GpuFixture fx;
  const index_t m = 2000, k = 600;
  fx.device.acquire_pinned("l2", m * k * 4, fx.host);
  DeviceMatrix l2_d = fx.device.allocate(m, k, "l2", fx.host);
  Matrix<double> l2(m, k, 0.5);
  Matrix<double> l1(k, k, 0.0);
  for (index_t i = 0; i < k; ++i) l1(i, i) = 1.0;

  const double t0 = fx.host.now();
  const double copy_duration = fx.device.copy_to_device_async(
      l2.view(), l2_d, 0, 0, fx.device.h2d_stream(), fx.host);
  ProcessorModel cpu = xeon5160_model();
  HostExec host_exec{&fx.host, &cpu, true};
  const double potrf_duration = host_potrf(host_exec, l1.view());
  fx.device.synchronize_stream(fx.device.h2d_stream(), fx.host);
  const double elapsed = fx.host.now() - t0;
  EXPECT_LT(elapsed, 0.9 * (copy_duration + potrf_duration));
  EXPECT_GE(elapsed, std::max(copy_duration, potrf_duration) - 1e-12);
}

TEST(GpublasTest, AssemblyCostScalesLinearly) {
  SimClock clock;
  ProcessorModel cpu = xeon5160_model();
  HostExec exec{&clock, &cpu, false};
  const double t1 = host_assembly_cost(exec, 1e6);
  const double t2 = host_assembly_cost(exec, 2e6);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
  EXPECT_THROW(host_assembly_cost(exec, -1.0), InvalidArgumentError);
}

TEST(GpublasTest, ApplyUpdateFromFloatIsBitwiseConvertThenSubtract) {
  // The host applies the device's float product straight from the device
  // block. It must equal, bit for bit, converting the product to double
  // first and subtracting that — special values included — and must leave
  // c's strict upper triangle and everything outside the view untouched.
  using fl = std::numeric_limits<float>;
  using dl = std::numeric_limits<double>;
  const float float_specials[] = {0.0f,          -0.0f,
                                  fl::denorm_min(), -fl::denorm_min(),
                                  1e-40f,        fl::infinity(),
                                  -fl::infinity(), fl::quiet_NaN()};
  const double double_specials[] = {0.0,           -0.0,
                                    dl::denorm_min(), 1e-310,
                                    dl::infinity(), -dl::infinity(),
                                    dl::quiet_NaN()};
  struct Shape {
    index_t rows, cols, pad;  ///< pad = extra leading-dimension rows
  };
  const Shape shapes[] = {{1, 1, 0},  {8, 8, 0},   {17, 17, 3},
                          {64, 64, 1}, {20, 13, 5}, {33, 7, 0}};
  ProcessorModel cpu = xeon5160_model();
  Rng rng(11);
  for (const Shape& shape : shapes) {
    const index_t ld = shape.rows + shape.pad;
    Matrix<float> product(ld, shape.cols);
    Matrix<double> c(ld, shape.cols);
    for (index_t j = 0; j < shape.cols; ++j) {
      for (index_t i = 0; i < ld; ++i) {
        product(i, j) = static_cast<float>(rng.uniform(-4.0, 4.0));
        c(i, j) = rng.uniform(-4.0, 4.0);
        if (rng.bernoulli(0.15)) {
          product(i, j) = float_specials[rng.uniform_int(0, 7)];
        }
        if (rng.bernoulli(0.15)) {
          c(i, j) = double_specials[rng.uniform_int(0, 6)];
        }
      }
    }
    const Matrix<double> original = c;
    MatrixView<const float> p_view =
        std::as_const(product).view().block(0, 0, shape.rows, shape.cols);
    MatrixView<double> c_view = c.view().block(0, 0, shape.rows, shape.cols);

    // The reference: a converted copy of the product, then the subtraction.
    Matrix<double> expected = original;
    Matrix<double> converted(shape.rows, shape.cols);
    copy_into<double>(p_view, converted.view());
    for (index_t j = 0; j < shape.cols; ++j) {
      for (index_t i = j; i < shape.rows; ++i) {
        expected(i, j) -= converted(i, j);
      }
    }

    SimClock clock;
    const double duration =
        host_apply_update(HostExec{&clock, &cpu, true}, p_view, c_view);
    const double n = static_cast<double>(shape.rows);
    EXPECT_DOUBLE_EQ(duration, 0.5 * n * (n + 1.0) / host_assembly_rate());
    EXPECT_DOUBLE_EQ(clock.now(), duration);
    const auto bytes = static_cast<std::size_t>(ld) *
                       static_cast<std::size_t>(shape.cols) * sizeof(double);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), bytes), 0)
        << shape.rows << "x" << shape.cols << " ld " << ld;

    // A dry run charges the same time from an empty product and writes
    // nothing.
    SimClock dry_clock;
    Matrix<double> dry = original;
    EXPECT_DOUBLE_EQ(
        host_apply_update(HostExec{&dry_clock, &cpu, false},
                          MatrixView<const float>(),
                          dry.view().block(0, 0, shape.rows, shape.cols)),
        duration);
    EXPECT_EQ(std::memcmp(dry.data(), original.data(), bytes), 0);
  }
}

}  // namespace
}  // namespace mfgpu
