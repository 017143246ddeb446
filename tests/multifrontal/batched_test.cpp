// Batched small-front execution: symbolic batch planning (group_batches)
// against its fixed thresholds, and the headline numeric contract —
// aggregated dispatch is a scheduling/pricing decision that never changes a
// bit of the factor relative to the per-front host path.
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
  const BatchPlan plan = group_batches(sym);
  ASSERT_EQ(plan.height.size(),
            static_cast<std::size_t>(sym.num_supernodes()));

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

bool qualifies(const SupernodeInfo& sn) {
  return sn.width() <= kBatchMaxK && sn.num_update_rows() > 0 &&
         sn.num_update_rows() <= kBatchMaxM;
}

TEST(BatchPlanTest, GroupsAreLevelPureQualifiedAndWithinBounds) {
  const Analysis analysis = elasticity_analysis();
  const SymbolicFactor& sym = analysis.symbolic;
  const BatchPlan plan = group_batches(sym);
  ASSERT_TRUE(plan.any());

  std::vector<std::size_t> batched_at(
      static_cast<std::size_t>(plan.num_levels), 0);
  std::size_t members = 0;
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const FrontBatch& batch = plan.batches[b];
    EXPECT_GE(batch.snodes.size(), static_cast<std::size_t>(kMinBatch));
    EXPECT_LE(batch.snodes.size(), static_cast<std::size_t>(kMaxBatch));
    index_t prev = -1;
    for (index_t s : batch.snodes) {
      ++members;
      ++batched_at[static_cast<std::size_t>(batch.level)];
      EXPECT_GT(s, prev) << "members must be ascending";  // deterministic order
      prev = s;
      EXPECT_EQ(plan.height[static_cast<std::size_t>(s)], batch.level);
      EXPECT_EQ(plan.batch_of[static_cast<std::size_t>(s)],
                static_cast<int>(b));
      EXPECT_TRUE(qualifies(sym.supernodes()[static_cast<std::size_t>(s)]))
          << "supernode " << s;
    }
  }
  // batch_of maps exactly the batched members and nobody else.
  std::size_t mapped = 0;
  for (int b : plan.batch_of) {
    if (b >= 0) ++mapped;
  }
  EXPECT_EQ(mapped, members);

  // Every qualifying front is batched, except a level's single trailing
  // front after its full-width batches.
  std::vector<std::size_t> qualifying_at(batched_at.size(), 0);
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    if (qualifies(sym.supernodes()[static_cast<std::size_t>(s)])) {
      ++qualifying_at[static_cast<std::size_t>(
          plan.height[static_cast<std::size_t>(s)])];
    }
  }
  for (std::size_t level = 0; level < batched_at.size(); ++level) {
    const std::size_t q = qualifying_at[level];
    EXPECT_EQ(batched_at[level],
              q % static_cast<std::size_t>(kMaxBatch) == 1 ? q - 1 : q)
        << "level " << level;
  }
}

/// An SPD matrix whose strictly lower pattern is `below[j]` for column j,
/// analyzed in natural order without relaxed amalgamation, so every
/// supernode is a fundamental one the test can predict.
Analysis analyze_pattern(const std::vector<std::vector<index_t>>& below) {
  const auto n = static_cast<index_t>(below.size());
  std::vector<index_t> col_ptr{0};
  std::vector<index_t> rows;
  std::vector<double> values;
  for (index_t j = 0; j < n; ++j) {
    rows.push_back(j);
    values.push_back(2.0 * static_cast<double>(n));
    for (index_t i : below[static_cast<std::size_t>(j)]) {
      rows.push_back(i);
      values.push_back(-1.0);
    }
    col_ptr.push_back(static_cast<index_t>(rows.size()));
  }
  AnalyzeOptions options;
  options.relax.enabled = false;
  return analyze(SparseSpd(n, std::move(col_ptr), std::move(rows),
                           std::move(values)),
                 Permutation::identity(n), options);
}

/// Columns [first, first + size) as a clique that also couples to `extra`.
void add_clique(std::vector<std::vector<index_t>>& below, index_t first,
                index_t size, const std::vector<index_t>& extra) {
  for (index_t j = first; j < first + size; ++j) {
    auto& rows = below[static_cast<std::size_t>(j)];
    for (index_t i = j + 1; i < first + size; ++i) rows.push_back(i);
    rows.insert(rows.end(), extra.begin(), extra.end());
  }
}

TEST(BatchPlanTest, MinBatchDissolvesSliversAndMaxZeroQualifiers) {
  // A star: 2 * kMaxBatch + 1 one-column leaves under one root. Level 0
  // splits into two full-width batches; the single trailing leaf stays
  // per-front.
  {
    const index_t leaves = 2 * kMaxBatch + 1;
    std::vector<std::vector<index_t>> below(
        static_cast<std::size_t>(leaves + 1));
    for (index_t j = 0; j < leaves; ++j) {
      below[static_cast<std::size_t>(j)] = {leaves};
    }
    const Analysis analysis = analyze_pattern(below);
    const BatchPlan plan = group_batches(analysis.symbolic);
    ASSERT_EQ(analysis.symbolic.num_supernodes(), leaves + 1);
    ASSERT_EQ(plan.batches.size(), 2u);
    for (const FrontBatch& batch : plan.batches) {
      EXPECT_EQ(batch.level, 0);
      EXPECT_EQ(batch.snodes.size(), static_cast<std::size_t>(kMaxBatch));
    }
    int per_front_leaves = 0;
    for (index_t s = 0; s < leaves; ++s) {
      if (plan.batch_of[static_cast<std::size_t>(s)] < 0) ++per_front_leaves;
    }
    EXPECT_EQ(per_front_leaves, 1);
    EXPECT_EQ(plan.batch_of.back(), -1) << "the root has no update rows";
  }

  // Two leaves with kBatchMaxM + 1 update rows each (a clique above them):
  // a pair at one level, but neither qualifies.
  {
    const index_t top = kBatchMaxM + 1;
    std::vector<std::vector<index_t>> below(static_cast<std::size_t>(top + 2));
    std::vector<index_t> clique(static_cast<std::size_t>(top));
    for (index_t i = 0; i < top; ++i) clique[static_cast<std::size_t>(i)] = 2 + i;
    below[0] = clique;
    below[1] = clique;
    add_clique(below, 2, top, {});
    const Analysis analysis = analyze_pattern(below);
    ASSERT_EQ(analysis.symbolic.supernodes()[0].num_update_rows(), top);
    EXPECT_FALSE(group_batches(analysis.symbolic).any());
  }

  // Two leaf cliques of width kBatchMaxK + 1 under one root: a pair at one
  // level, but neither qualifies.
  {
    const index_t width = kBatchMaxK + 1;
    const index_t root = 2 * width;
    std::vector<std::vector<index_t>> below(static_cast<std::size_t>(root + 1));
    add_clique(below, 0, width, {root});
    add_clique(below, width, width, {root});
    const Analysis analysis = analyze_pattern(below);
    ASSERT_EQ(analysis.symbolic.supernodes()[0].width(), width);
    EXPECT_FALSE(group_batches(analysis.symbolic).any());
  }
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
  options.batching = true;
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
  options.numeric.batching = true;
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
  options.batching = true;
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
