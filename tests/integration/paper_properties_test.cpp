// Property tests pinning the paper's qualitative claims on realistic
// factorization traces (the statements of Sections IV-VI that every bench
// then quantifies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autotune/hybrid.hpp"
#include "cluster/cluster.hpp"
#include "multifrontal/factorization.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

class PaperPropertiesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One representative 3-D structural stand-in, symbolic-only scale.
    Rng rng(2011);
    problem_ = new GridProblem(make_elasticity_3d(24, 24, 20, 3, rng));
    analysis_ = new Analysis(
        analyze(problem_->matrix, nested_dissection(problem_->coords)));
    PolicyExecutor p1(Policy::P1);
    FactorContext ctx;
    ctx.numeric = false;
    FactorizeOptions opt;
    opt.store_factor = false;
    trace_ = new FactorizationTrace(
        factorize(*analysis_, p1, ctx, opt).trace);
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete analysis_;
    delete trace_;
  }

  static GridProblem* problem_;
  static Analysis* analysis_;
  static FactorizationTrace* trace_;
};

GridProblem* PaperPropertiesTest::problem_ = nullptr;
Analysis* PaperPropertiesTest::analysis_ = nullptr;
FactorizationTrace* PaperPropertiesTest::trace_ = nullptr;

TEST_F(PaperPropertiesTest, MostCallsAreSmall) {
  // Paper Section IV-A: ~97% of F-U calls have k <= 500 and m <= 1000.
  index_t small = 0;
  for (const auto& call : trace_->calls) {
    if (call.k <= 500 && call.m <= 1000) ++small;
  }
  const double fraction =
      static_cast<double>(small) / static_cast<double>(trace_->calls.size());
  EXPECT_GT(fraction, 0.9);
}

TEST_F(PaperPropertiesTest, SmallCallsCarrySmallFractionOfTime) {
  // Section IV-A: the small calls dominate in count but the large-matrix
  // calls dominate the computation time.
  double small_time = 0.0, total_time = 0.0;
  for (const auto& call : trace_->calls) {
    total_time += call.t_total;
    if (call.k <= 100 && call.m <= 200) small_time += call.t_total;
  }
  EXPECT_LT(small_time / total_time, 0.5);
}

TEST_F(PaperPropertiesTest, FuDominatesTotalTime) {
  // Section II-A: F-U consumes ~90% of the runtime for large matrices.
  EXPECT_GT(trace_->fu_time / trace_->total_time, 0.75);
}

TEST_F(PaperPropertiesTest, PotrfSmallFractionOnHost) {
  // Table IV: on the host implementation potrf is < 8% of the total time
  // at the paper's ~1M-dof scale; our stand-ins are two orders of
  // magnitude smaller, where the (potrf-only) root separator front weighs
  // relatively more, so allow up to 25% — still a clear minority, which is
  // the property the paper uses to justify offloading syrk/trsm first.
  EXPECT_LT(trace_->total_potrf() / trace_->total_time, 0.25);
}

TEST_F(PaperPropertiesTest, RootSupernodeHasNoUpdateRows) {
  // The paper's potrf-on-GPU special case (Table V) happens at m = 0,
  // "close to the root of the elimination tree".
  const auto& snodes = analysis_->symbolic.supernodes();
  EXPECT_EQ(snodes.back().num_update_rows(), 0);
  // And the root's pivot block is among the biggest (separator).
  index_t max_k = 0;
  for (const auto& sn : snodes) max_k = std::max(max_k, sn.width());
  EXPECT_GE(snodes.back().width() * 4, max_k);
}

TEST_F(PaperPropertiesTest, PotrfTimeConcentratedInTopCalls) {
  // Section IV-D (kyushu): the top-10 potrf calls account for ~96% of all
  // potrf time. Assert strong concentration (>70% in top 10).
  std::vector<double> potrf_times;
  for (const auto& call : trace_->calls) potrf_times.push_back(call.t_potrf);
  std::sort(potrf_times.rbegin(), potrf_times.rend());
  double top10 = 0.0, total = 0.0;
  for (std::size_t i = 0; i < potrf_times.size(); ++i) {
    total += potrf_times[i];
    if (i < 10) top10 += potrf_times[i];
  }
  EXPECT_GT(top10 / total, 0.7);
}

TEST_F(PaperPropertiesTest, HybridSpeedupGrowsWithFrontSize) {
  // Fig. 14: speedup ~1x for small fronts, up to 12-13x for the largest.
  PolicyTimer timer;
  auto speedup = [&](index_t m, index_t k) {
    const double p1 = timer.time(Policy::P1, FuCall{.m = m, .k = k});
    double best = p1;
    for (Policy p : {Policy::P2, Policy::P3, Policy::P4}) {
      best = std::min(best, timer.time(p, FuCall{.m = m, .k = k}));
    }
    return p1 / best;
  };
  const double s_small = speedup(100, 50);
  const double s_mid = speedup(1500, 700);
  const double s_big = speedup(9000, 5000);
  EXPECT_LT(s_small, 2.0);
  EXPECT_GT(s_mid, s_small);
  EXPECT_GT(s_big, s_mid);
  EXPECT_GT(s_big, 8.0);
}

TEST_F(PaperPropertiesTest, EndToEndHybridSpeedupInPaperRange) {
  // Table VII: ideal/model hybrids reach 5-10x over one CPU thread on the
  // large 3-D matrices. Our stand-in is smaller, so accept 2.5-12x.
  PolicyExecutor p1(Policy::P1);
  FactorContext serial;
  serial.numeric = false;
  FactorizeOptions opt;
  opt.store_factor = false;
  const double t1 = factorize(*analysis_, p1, serial, opt).trace.total_time;

  DispatchExecutor ideal = make_ideal_hybrid();
  FactorContext hybrid;
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  hybrid.device = &device;
  hybrid.numeric = false;
  const double th = factorize(*analysis_, ideal, hybrid, opt).trace.total_time;
  const double speedup = t1 / th;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 12.0);
}

TEST_F(PaperPropertiesTest, TwoGpuScheduleBeatsOneGpu) {
  // Table VII last column: 2 threads + 2 GPUs clearly beat 1 thread + 1
  // GPU (the paper roughly doubles it). Executed by the fan-both engine on
  // shared-memory GPU nodes with copy-optimized P4.
  auto makespan = [&](int nodes) {
    ClusterFactorizeOptions options;
    options.cluster.num_nodes = nodes;
    options.cluster.link = shared_memory_link();
    options.executor.copy_optimized_p4 = true;
    options.numeric.store_factor = false;
    return factorize_cluster(*analysis_, options).trace.total_time;
  };
  const double one = makespan(1);
  const double two = makespan(2);
  EXPECT_LT(two, one);
  EXPECT_GT(one / two, 1.3);
}

TEST_F(PaperPropertiesTest, TwoDProblemsSpeedupLess) {
  // Paper Section VI-C: "one might not observe such speedups for large 2D
  // problems" — 2-D fronts stay small, so the hybrid gains less.
  const GridProblem p2d = make_laplacian_2d_9pt(60, 60);
  const Analysis an2d = analyze(p2d.matrix, nested_dissection(p2d.coords));

  auto hybrid_speedup = [&](const Analysis& an) {
    PolicyExecutor p1(Policy::P1);
    FactorContext serial;
    serial.numeric = false;
    FactorizeOptions opt;
    opt.store_factor = false;
    const double t1 = factorize(an, p1, serial, opt).trace.total_time;
    DispatchExecutor ideal = make_ideal_hybrid();
    FactorContext hybrid;
    Device::Options dry;
    dry.numeric = false;
    Device device(dry);
    hybrid.device = &device;
    hybrid.numeric = false;
    const double th = factorize(an, ideal, hybrid, opt).trace.total_time;
    return t1 / th;
  };
  EXPECT_LT(hybrid_speedup(an2d), hybrid_speedup(*analysis_));
}

}  // namespace
}  // namespace mfgpu
