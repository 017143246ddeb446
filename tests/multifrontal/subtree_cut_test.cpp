// The subtree-to-core cut (subtree_groups, symbolic/tree_stats.hpp) as the
// factor's pool plan and the solve schedule use it: the factor's nodes tile
// the postorder in whole subtrees or single supernodes, the plan does not
// depend on the worker count, and the solve's groups are the ones recorded
// before the cut became a shared helper.
#include <gtest/gtest.h>

#include <vector>

#include "multifrontal/parallel.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "ordering/minimum_degree.hpp"
#include "sparse/generators.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {
namespace {

Analysis analyze_md(const SparseSpd& a) {
  return analyze(a, minimum_degree(build_graph(a)));
}

PoolPlan plan_for(const Analysis& analysis, int workers, bool batching) {
  ParallelFactorizeOptions options;
  options.num_threads = workers;
  options.numeric.batching = batching;
  return plan_pool(analysis, options);
}

/// Per supernode, the size of its subtree (postorder: the subtree of s is
/// the range [s - size + 1, s]).
std::vector<index_t> subtree_sizes(const SymbolicFactor& sym) {
  std::vector<index_t> size(static_cast<std::size_t>(sym.num_supernodes()), 1);
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    const index_t p = sym.supernodes()[static_cast<std::size_t>(s)].parent;
    if (p != -1) {
      size[static_cast<std::size_t>(p)] += size[static_cast<std::size_t>(s)];
    }
  }
  return size;
}

TEST(SubtreeCutTest, FactorNodesAreWholeSubtreesTilingThePostorder) {
  const GridProblem p = make_laplacian_2d_9pt(60, 60);
  const Analysis analysis = analyze_md(p.matrix);
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  const PoolPlan plan = plan_for(analysis, 4, false);
  const auto num_nodes = static_cast<index_t>(plan.node_batch.size());
  ASSERT_GT(num_nodes, 1);
  ASSERT_LT(num_nodes, nsup);  // some subtrees run as one task
  ASSERT_EQ(plan.node_begin.size(), plan.node_batch.size());
  ASSERT_EQ(plan.node_end.size(), plan.node_batch.size());
  ASSERT_EQ(plan.node_of.size(), static_cast<std::size_t>(nsup));

  // Contiguous tiling of 0..nsup-1, in node order.
  const std::vector<index_t> size = subtree_sizes(sym);
  index_t next = 0;
  bool some_subtree = false;
  for (index_t nd = 0; nd < num_nodes; ++nd) {
    const auto i = static_cast<std::size_t>(nd);
    EXPECT_EQ(plan.node_batch[i], -1);
    ASSERT_EQ(plan.node_begin[i], next);
    ASSERT_LT(plan.node_begin[i], plan.node_end[i]);
    next = plan.node_end[i];
    // A whole subtree (its root last) or a single supernode.
    const index_t root = plan.node_end[i] - 1;
    const index_t members = plan.node_end[i] - plan.node_begin[i];
    EXPECT_TRUE(members == 1 || members == size[static_cast<std::size_t>(root)])
        << "node " << nd;
    some_subtree = some_subtree || members > 1;
    for (index_t s = plan.node_begin[i]; s < plan.node_end[i]; ++s) {
      EXPECT_EQ(plan.node_of[static_cast<std::size_t>(s)], nd);
    }
  }
  EXPECT_EQ(next, nsup);
  EXPECT_TRUE(some_subtree);

  // Edges: one per child whose parent runs in another node.
  std::vector<index_t> deps(static_cast<std::size_t>(num_nodes), 0);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = sym.supernodes()[static_cast<std::size_t>(s)].parent;
    if (parent == -1) continue;
    const index_t from = plan.node_of[static_cast<std::size_t>(s)];
    const index_t to = plan.node_of[static_cast<std::size_t>(parent)];
    if (from != to) ++deps[static_cast<std::size_t>(to)];
  }
  EXPECT_EQ(plan.num_deps, deps);
}

TEST(SubtreeCutTest, FactorPlanDoesNotDependOnTheWorkerCount) {
  const GridProblem p = make_laplacian_3d(8, 8, 6);
  const Analysis analysis = analyze_md(p.matrix);
  const PoolPlan two = plan_for(analysis, 2, false);
  const PoolPlan four = plan_for(analysis, 4, false);
  EXPECT_EQ(two.node_begin, four.node_begin);
  EXPECT_EQ(two.node_end, four.node_end);
  EXPECT_EQ(two.node_of, four.node_of);
  EXPECT_EQ(two.succ_ptr, four.succ_ptr);
  EXPECT_EQ(two.succ, four.succ);
  EXPECT_EQ(two.num_deps, four.num_deps);
  EXPECT_EQ(two.priority, four.priority);
}

TEST(SubtreeCutTest, OneWorkerAndBatchedPlansKeepOneNodePerFront) {
  const GridProblem p = make_laplacian_3d(8, 8, 6);
  const Analysis analysis = analyze_md(p.matrix);
  const index_t nsup = analysis.symbolic.num_supernodes();
  const PoolPlan one = plan_for(analysis, 1, false);
  ASSERT_EQ(one.node_batch.size(), static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    EXPECT_EQ(one.node_begin[static_cast<std::size_t>(s)], s);
    EXPECT_EQ(one.node_end[static_cast<std::size_t>(s)], s + 1);
  }
  const PoolPlan batched = plan_for(analysis, 4, true);
  for (std::size_t nd = 0; nd < batched.node_batch.size(); ++nd) {
    if (batched.node_batch[nd] >= 0) {
      EXPECT_EQ(batched.node_begin[nd], batched.node_end[nd]);
    } else {
      EXPECT_EQ(batched.node_end[nd] - batched.node_begin[nd], 1);
    }
  }
}

// The solve's groups, recorded from build_solve_schedule before the cut
// moved into subtree_groups.
TEST(SubtreeCutTest, SolveGroupsMatchTheRecordedCut) {
  {
    const GridProblem p = make_laplacian_2d_9pt(300, 300);
    const SolveSchedule sched =
        build_solve_schedule(analyze_md(p.matrix).symbolic);
    const std::vector<index_t> expected = {
        0,     491,   762,   763,   1034,  1305,  1576,  2067,  2506,  2507,
        2508,  2509,  2510,  2511,  3054,  3597,  3598,  3599,  4142,  4685,
        4686,  4957,  5228,  5499,  5770,  6090,  6621,  6622,  6623,  6624,
        6625,  6626,  7169,  7644,  8187,  8188,  8189,  8190,  8191,  8192,
        8735,  9278,  9279,  9550,  10081, 10082, 10353, 10884, 10885, 10886,
        11429, 11972, 11973, 11974, 11975, 12518, 13061, 13062, 13605, 14148,
        14149, 14150, 14693, 14964, 15209, 15700, 15701, 15702, 15703, 16246,
        16517, 16994, 17129, 17732, 17733, 17734, 17735, 17736, 18007, 18538,
        18539, 19082, 19625, 19626, 19627, 20170, 20647, 21115, 21592, 21593,
        21594, 21595, 21596, 21597, 22140, 22683, 22684, 23227, 23770, 23771,
        23772, 23773, 23774, 23775, 23776};
    EXPECT_EQ(sched.group_ptr, expected);
  }
  {
    const GridProblem p = make_laplacian_3d(8, 8, 6);
    const SolveSchedule sched =
        build_solve_schedule(analyze_md(p.matrix).symbolic);
    const std::vector<index_t> expected = {
        0,   1,   2,   8,   9,   10,  11,  12,  13,  14,  15,  16,  17,  18,
        19,  26,  27,  28,  29,  30,  31,  32,  33,  34,  35,  36,  37,  38,
        39,  40,  41,  42,  43,  44,  45,  46,  51,  56,  57,  58,  59,  60,
        61,  62,  63,  64,  65,  66,  67,  68,  69,  70,  71,  72,  73,  74,
        75,  76,  77,  78,  79,  80,  81,  82,  89,  94,  95,  96,  97,  99,
        100, 101, 104, 105, 106, 107, 108, 114, 115, 116, 117, 118, 119, 120,
        121, 122, 123, 124, 125, 126, 127, 128, 129, 130, 131, 132, 133, 134,
        135, 136, 137};
    EXPECT_EQ(sched.group_ptr, expected);
  }
}

}  // namespace
}  // namespace mfgpu
