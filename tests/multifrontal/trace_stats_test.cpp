#include "multifrontal/trace_stats.hpp"

#include <gtest/gtest.h>

namespace mfgpu {
namespace {

FuCallRecord call(index_t m, index_t k, int policy, double total,
                  double copy = 0.0) {
  FuCallRecord r;
  r.m = m;
  r.k = k;
  r.policy = policy;
  r.t_total = total;
  r.t_copy = copy;
  r.t_potrf = total / 4;
  r.t_trsm = total / 4;
  r.t_syrk = total / 4;
  return r;
}

FactorizationTrace sample_trace() {
  FactorizationTrace trace;
  trace.calls.push_back(call(10, 5, 1, 1.0));          // ops ~ 791 -> 1e2
  trace.calls.push_back(call(100, 50, 1, 2.0));        // ~ 7.9e5 -> 1e5
  trace.calls.push_back(call(2000, 1000, 3, 8.0, 2.0));  // ~ 6.3e9 -> 1e9
  trace.calls.push_back(call(2000, 1000, 4, 4.0, 1.0));
  return trace;
}

TEST(TraceStatsTest, BinningByDecade) {
  const auto bins = bin_by_ops_decade(sample_trace());
  ASSERT_EQ(bins.count(2), 1u);
  ASSERT_EQ(bins.count(5), 1u);
  ASSERT_EQ(bins.count(9), 1u);
  EXPECT_EQ(bins.at(9).calls, 2);
  EXPECT_DOUBLE_EQ(bins.at(9).total, 12.0);
  EXPECT_DOUBLE_EQ(bins.at(9).copy, 3.0);
  EXPECT_DOUBLE_EQ(bins.at(2).kernels(), 0.75);
}

TEST(TraceStatsTest, PolicyBreakdown) {
  const PolicyBreakdown b = policy_breakdown(sample_trace());
  EXPECT_EQ(b.calls[1], 2);
  EXPECT_EQ(b.calls[3], 1);
  EXPECT_EQ(b.calls[4], 1);
  EXPECT_EQ(b.calls[2], 0);
  EXPECT_DOUBLE_EQ(b.time[1], 3.0);
  EXPECT_EQ(b.total_calls(), 4);
  EXPECT_DOUBLE_EQ(b.total_time(), 15.0);
}

TEST(TraceStatsTest, PolicyBreakdownRejectsCorruptTrace) {
  FactorizationTrace trace;
  trace.calls.push_back(call(1, 1, 7, 1.0));
  EXPECT_THROW(policy_breakdown(trace), InvalidArgumentError);
}

TEST(TraceStatsTest, SmallCallFractions) {
  const FactorizationTrace trace = sample_trace();
  EXPECT_DOUBLE_EQ(small_call_fraction(trace, 1000, 500), 0.5);
  EXPECT_DOUBLE_EQ(small_call_fraction({}, 10, 10), 0.0);
}

TEST(TraceStatsTest, TimeDistributionGridNormalized) {
  const Grid2D grid = time_distribution_grid(sample_trace(), 4000, 1000,
                                             /*subtract_copy=*/false);
  EXPECT_NEAR(grid.total(), 1.0, 1e-12);
  // The two big calls land in the (m=2000, k=1000) bin: 12/15 of the mass.
  EXPECT_NEAR(grid.at(2, 1), 12.0 / 15.0, 1e-12);
}

TEST(TraceStatsTest, SubtractCopyChangesWeights) {
  const Grid2D with_copy = time_distribution_grid(sample_trace(), 4000, 1000,
                                                  false);
  const Grid2D without = time_distribution_grid(sample_trace(), 4000, 1000,
                                                true);
  // Removing copy time shrinks the big-call share (they carry all copies).
  EXPECT_LT(without.at(2, 1), with_copy.at(2, 1));
}

}  // namespace
}  // namespace mfgpu
