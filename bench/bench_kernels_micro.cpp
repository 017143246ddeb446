// Wall-clock microbenchmarks (google-benchmark) of the library's own dense
// kernels, in both precisions: the numeric substrate every factorization
// driver, the simulated device and the refinement path execute on. The
// shapes are the n = 8..256 squares (the tiny ones are the fronts of 2-D
// problems) plus the F-U shapes of the top fronts of a 16^3 3-dof elasticity
// grid (syrk and trsm at m = 1509, k = 456; potrf at k = 1024). The context
// header names the instruction-set variant the kernels selected.
#include <benchmark/benchmark.h>

#include "dense/kernels.hpp"
#include "dense/potrf.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

template <typename T>
Matrix<T> random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      m(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

template <typename T>
Matrix<T> random_spd(index_t n, std::uint64_t seed) {
  auto g = random_matrix<T>(n, n, seed);
  Matrix<T> a(n, n, T{});
  gemm<T>(Trans::NoTrans, Trans::Transpose, T{1}, g.view(), g.view(), T{},
          a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<T>(n);
  return a;
}

template <typename T>
void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = random_matrix<T>(n, n, 1);
  const auto b = random_matrix<T>(n, n, 2);
  Matrix<T> c(n, n, T{});
  for (auto _ : state) {
    gemm<T>(Trans::NoTrans, Trans::Transpose, T{1}, a.view(), b.view(), T{},
            c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/// Args: (m, k) — C is m x m, A is m x k.
template <typename T>
void BM_SyrkLower(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t k = state.range(1);
  const auto a = random_matrix<T>(m, k, 3);
  Matrix<T> c(m, m, T{});
  for (auto _ : state) {
    syrk_lower<T>(T{-1}, a.view(), T{1}, c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * syrk_ops(m, k));
}

/// Args: (m, k) — B is m x k, L is k x k.
template <typename T>
void BM_TrsmRightLT(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t k = state.range(1);
  auto l = random_spd<T>(k, 4);
  potrf<T>(l.view());
  const auto b0 = random_matrix<T>(m, k, 5);
  auto b = b0;
  for (auto _ : state) {
    b = b0;  // timed: a pause costs more than the copy at n = 8
    trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit, T{1},
            l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * trsm_ops(m, k));
}

template <typename T>
void BM_Potrf(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = random_spd<T>(n, 6);
  auto l = a;
  for (auto _ : state) {
    l = a;  // timed: a pause costs more than the copy at n = 8
    potrf<T>(l.view());
    benchmark::DoNotOptimize(l.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * potrf_ops(n));
}

void squares(benchmark::internal::Benchmark* b) {
  for (index_t n : {8, 16, 32, 64, 128, 256}) b->Arg(n);
}
void syrk_shapes(benchmark::internal::Benchmark* b) {
  for (index_t n : {8, 16, 32, 64, 128, 256}) b->Args({n, n / 2});
  b->Args({1509, 456});
}
void trsm_shapes(benchmark::internal::Benchmark* b) {
  for (index_t k : {8, 16, 32, 64, 128, 256}) b->Args({2 * k, k});
  b->Args({1509, 456});
}
void potrf_shapes(benchmark::internal::Benchmark* b) {
  squares(b);
  b->Arg(1024);
}

BENCHMARK_TEMPLATE(BM_Gemm, double)->Apply(squares);
BENCHMARK_TEMPLATE(BM_Gemm, float)->Apply(squares);
BENCHMARK_TEMPLATE(BM_SyrkLower, double)->Apply(syrk_shapes);
BENCHMARK_TEMPLATE(BM_SyrkLower, float)->Apply(syrk_shapes);
BENCHMARK_TEMPLATE(BM_TrsmRightLT, double)->Apply(trsm_shapes);
BENCHMARK_TEMPLATE(BM_TrsmRightLT, float)->Apply(trsm_shapes);
BENCHMARK_TEMPLATE(BM_Potrf, double)->Apply(potrf_shapes);
BENCHMARK_TEMPLATE(BM_Potrf, float)->Apply(potrf_shapes);

}  // namespace
}  // namespace mfgpu

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "dense_isa", mfgpu::dense::isa_name(mfgpu::dense::selected_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
