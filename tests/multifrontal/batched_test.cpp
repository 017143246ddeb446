// Batched small-front execution: symbolic batch planning (group_batches),
// the --batch/MFGPU_BATCH option plumbing, and the headline numeric
// contract — aggregated dispatch is a scheduling/pricing decision that
// never changes a bit of the factor relative to the per-front host path.
#include "multifrontal/batched.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "helpers/factor_bitwise.hpp"
#include "multifrontal/factorization.hpp"
#include "multifrontal/parallel.hpp"
#include "obs/request_context.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

Analysis analyze_md(const SparseSpd& a) {
  return analyze(a, minimum_degree(build_graph(a)));
}

Analysis elasticity_analysis() {
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  return analyze_md(p.matrix);
}

TEST(BatchPlanTest, HeightsFollowTheEliminationTree) {
  const Analysis analysis = elasticity_analysis();
  const SymbolicFactor& sym = analysis.symbolic;
  const BatchPlan plan = group_batches(sym, {});  // mode Off: heights only
  ASSERT_EQ(plan.height.size(),
            static_cast<std::size_t>(sym.num_supernodes()));
  EXPECT_FALSE(plan.any());

  // Leaves sit at height 0; every parent is strictly above its children and
  // exactly 1 + max over them.
  std::vector<index_t> expected(plan.height.size(), 0);
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    const index_t parent = sym.supernodes()[static_cast<std::size_t>(s)].parent;
    if (parent == -1) continue;
    expected[static_cast<std::size_t>(parent)] =
        std::max(expected[static_cast<std::size_t>(parent)],
                 expected[static_cast<std::size_t>(s)] + 1);
  }
  index_t levels = 0;
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    EXPECT_EQ(plan.height[static_cast<std::size_t>(s)],
              expected[static_cast<std::size_t>(s)])
        << "supernode " << s;
    levels = std::max(levels, plan.height[static_cast<std::size_t>(s)] + 1);
  }
  EXPECT_EQ(plan.num_levels, levels);
}

TEST(BatchPlanTest, GroupsAreLevelPureQualifiedAndWithinBounds) {
  const Analysis analysis = elasticity_analysis();
  const SymbolicFactor& sym = analysis.symbolic;
  BatchingOptions options = parse_batching("on,min=2,max=8");
  const BatchPlan plan = group_batches(sym, options);
  ASSERT_TRUE(plan.any());

  std::size_t members = 0;
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const FrontBatch& batch = plan.batches[b];
    EXPECT_GE(batch.snodes.size(), 2u);
    EXPECT_LE(batch.snodes.size(), 8u);
    index_t prev = -1;
    for (index_t s : batch.snodes) {
      ++members;
      EXPECT_GT(s, prev) << "members must be ascending";  // deterministic order
      prev = s;
      EXPECT_EQ(plan.height[static_cast<std::size_t>(s)], batch.level);
      EXPECT_EQ(plan.batch_of[static_cast<std::size_t>(s)],
                static_cast<int>(b));
      const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
      EXPECT_GT(sn.num_update_rows(), 0);
      EXPECT_LE(sn.num_update_rows(), options.max_m);
      EXPECT_LE(sn.width(), options.max_k);
    }
  }
  // batch_of maps exactly the batched members and nobody else.
  std::size_t mapped = 0;
  for (int b : plan.batch_of) {
    if (b >= 0) ++mapped;
  }
  EXPECT_EQ(mapped, members);
}

TEST(BatchPlanTest, MinBatchDissolvesSliversAndMaxZeroQualifiers) {
  const Analysis analysis = elasticity_analysis();
  const SymbolicFactor& sym = analysis.symbolic;

  BatchingOptions huge_min = parse_batching("on,min=1000,max=2000");
  EXPECT_FALSE(group_batches(sym, huge_min).any());

  // Nothing qualifies when the size caps exclude every front.
  BatchingOptions tiny_caps = parse_batching("on,max_k=1,max_m=1,min=2");
  bool any_single_col = false;
  for (const SupernodeInfo& sn : sym.supernodes()) {
    any_single_col = any_single_col ||
                     (sn.width() == 1 && sn.num_update_rows() == 1);
  }
  if (!any_single_col) {
    EXPECT_FALSE(group_batches(sym, tiny_caps).any());
  }
}

TEST(BatchPlanTest, AutoModeDropsGroupsAboveTheOpsThreshold) {
  const Analysis analysis = elasticity_analysis();
  const SymbolicFactor& sym = analysis.symbolic;
  // A 1-flop threshold rejects every group; a huge one accepts exactly what
  // mode=on would.
  EXPECT_FALSE(group_batches(sym, parse_batching("auto,min=2,ops=1")).any());
  const BatchPlan open = group_batches(sym, parse_batching("on,min=2"));
  const BatchPlan wide =
      group_batches(sym, parse_batching("auto,min=2,ops=1000000000"));
  ASSERT_EQ(wide.batches.size(), open.batches.size());
  for (std::size_t b = 0; b < wide.batches.size(); ++b) {
    EXPECT_EQ(wide.batches[b].snodes, open.batches[b].snodes);
  }
}

TEST(BatchingOptionsTest, ParseModesAndOverrides) {
  EXPECT_FALSE(parse_batching("off").enabled());
  EXPECT_EQ(parse_batching("on").mode, BatchingMode::On);
  EXPECT_EQ(parse_batching("auto").mode, BatchingMode::Auto);

  const BatchingOptions o =
      parse_batching("auto,max_k=96,max_m=256,min=2,max=64,ops=5000000");
  EXPECT_EQ(o.mode, BatchingMode::Auto);
  EXPECT_EQ(o.max_k, 96);
  EXPECT_EQ(o.max_m, 256);
  EXPECT_EQ(o.min_batch, 2);
  EXPECT_EQ(o.max_batch, 64);
  EXPECT_DOUBLE_EQ(o.auto_ops_threshold, 5.0e6);

  EXPECT_STREQ(batching_mode_name(BatchingMode::Off), "off");
  EXPECT_STREQ(batching_mode_name(BatchingMode::On), "on");
  EXPECT_STREQ(batching_mode_name(BatchingMode::Auto), "auto");
}

TEST(BatchingOptionsTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(parse_batching(""), InvalidArgumentError);
  EXPECT_THROW(parse_batching("sideways"), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,max_k="), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,max_k=0"), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,max_k=abc"), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,bogus=3"), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,min"), InvalidArgumentError);
  EXPECT_THROW(parse_batching("on,min=8,max=4"), InvalidArgumentError);
}

TEST(BatchingOptionsTest, ResolvePrecedenceIsCliThenEnvThenDefault) {
  // CLI beats the environment — including an explicit "off".
  EXPECT_EQ(resolve_batching("on", "auto").mode, BatchingMode::On);
  EXPECT_EQ(resolve_batching("off", "on").mode, BatchingMode::Off);
  // Environment applies only when the flag is absent.
  const BatchingOptions env = resolve_batching("", "auto,max_k=64");
  EXPECT_EQ(env.mode, BatchingMode::Auto);
  EXPECT_EQ(env.max_k, 64);
  // Neither set: the default (Off).
  EXPECT_FALSE(resolve_batching("", nullptr).enabled());
  EXPECT_FALSE(resolve_batching("", "").enabled());
}

// ---------------------------------------------------------------------------
// The numeric contract: batched execution is bitwise identical to the
// per-front host path, serial or parallel, at any worker count.

int batched_calls(const FactorizationTrace& trace) {
  int count = 0;
  for (const FuCallRecord& r : trace.calls) {
    if (r.batch > 1) ++count;
  }
  return count;
}

FactorizeResult factorize_serial_p1(const Analysis& analysis) {
  PolicyExecutor executor(Policy::P1);
  FactorContext ctx;
  return factorize(analysis, executor, ctx);
}

TEST(BatchedFactorizeTest, SerialBatchedIsBitwiseEqualToPerFront) {
  const Analysis analysis = elasticity_analysis();
  const FactorizeResult per_front = factorize_serial_p1(analysis);

  DispatchExecutor dispatch("p1", [](const FuCall&) { return Policy::P1; });
  Device device;
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = parse_batching("on,min=2");
  const FactorizeResult batched = factorize(analysis, dispatch, ctx, options);

  EXPECT_GT(batched_calls(batched.trace), 0) << "plan never batched";
  EXPECT_TRUE(testing_helpers::factors_bitwise_equal(per_front.factor, batched.factor));
  EXPECT_EQ(per_front.trace.calls.size(), batched.trace.calls.size());
}

class ParallelFactorizeBatched : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFactorizeBatched, BitwiseEqualToPerFrontSerialAtAnyWidth) {
  const int threads = GetParam();
  const Analysis analysis = elasticity_analysis();
  const FactorizeResult per_front = factorize_serial_p1(analysis);

  ParallelFactorizeOptions options;
  options.workers.assign(static_cast<std::size_t>(threads),
                         WorkerSpec{.has_gpu = true});
  options.deterministic_reduction = true;
  options.numeric.batching = parse_batching("on,min=2");
  const FactorizeResult batched = factorize_parallel(
      analysis, options, [](const WorkerSpec&, int) {
        return std::make_unique<DispatchExecutor>(
            "p1", [](const FuCall&) { return Policy::P1; });
      });

  EXPECT_GT(batched_calls(batched.trace), 0) << "plan never batched";
  EXPECT_TRUE(testing_helpers::factors_bitwise_equal(per_front.factor, batched.factor));
  EXPECT_EQ(per_front.trace.calls.size(), batched.trace.calls.size());
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFactorizeBatched,
                         ::testing::Values(1, 2, 4, 8));

TEST(BatchedFactorizeTest, BatchedDispatchesStampTheServingRequestId) {
  obs::RequestContext request;
  request.request_id = obs::next_request_id();

  const Analysis analysis = elasticity_analysis();
  DispatchExecutor dispatch("p1", [](const FuCall&) { return Policy::P1; });
  Device device;
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = parse_batching("on,min=2");
  FactorizeResult result;
  {
    obs::RequestScope scope(&request);
    result = factorize(analysis, dispatch, ctx, options);
  }

  // Every trace record — the aggregated execute_batch members included —
  // carries the request id the thread was serving, with obs recording off.
  // The batched members are dispatch decisions the policy audit attributes
  // to the request through these records.
  ASSERT_GT(batched_calls(result.trace), 0) << "plan never batched";
  for (const FuCallRecord& r : result.trace.calls) {
    EXPECT_TRUE(r.dispatched) << "snode " << r.snode;
    EXPECT_EQ(r.request_id, request.request_id)
        << "snode " << r.snode << " batch " << r.batch;
  }
}

}  // namespace
}  // namespace mfgpu
