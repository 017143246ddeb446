// Tests for the scheduling building blocks of the distributed-memory
// (cluster) extension — the paper's stated future work: the supernode task
// DAG, the interconnect model, and proportional subtree mapping. The
// engine that schedules on them is tested in tests/cluster/.
#include <gtest/gtest.h>

#include "ordering/nested_dissection.hpp"
#include "sched/interconnect.hpp"
#include "policy/policy.hpp"
#include "sched/proportional_map.hpp"
#include "sparse/generators.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {
namespace {

TaskGraph test_graph() {
  const GridProblem p = make_laplacian_3d(8, 8, 6);
  static Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  return build_task_graph(an.symbolic, an.permuted);
}

TEST(TaskGraphTest, StructureMirrorsSupernodes) {
  const GridProblem p = make_laplacian_3d(5, 5, 3);
  const Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  const TaskGraph g = build_task_graph(an.symbolic, an.permuted);
  EXPECT_EQ(g.num_tasks, an.symbolic.num_supernodes());
  for (index_t t = 0; t < g.num_tasks; ++t) {
    EXPECT_GT(g.assembly_entries[static_cast<std::size_t>(t)], 0.0);
    if (g.parent[static_cast<std::size_t>(t)] != -1) {
      EXPECT_GT(g.parent[static_cast<std::size_t>(t)], t);
    }
  }
}

TEST(InterconnectModelTest, SharedMemoryIsFree) {
  const InterconnectModel shared;
  EXPECT_FALSE(shared.enabled());
  EXPECT_DOUBLE_EQ(shared.transfer_time(1000), 0.0);
}

TEST(InterconnectModelTest, TransferTimeScalesWithUpdateSize) {
  const InterconnectModel link{1e9, 1e-5};
  const double t_small = link.transfer_time(100);
  const double t_big = link.transfer_time(1000);
  EXPECT_GT(t_big, t_small);
  // m=1000 packed lower = 1000*1001/2 doubles = ~4 MB -> ~4 ms + latency.
  EXPECT_NEAR(t_big, 1e-5 + 1000.0 * 1001 / 2 * 8 / 1e9, 1e-9);
}

TEST(InterconnectModelTest, EmptyUpdateSendsNothing) {
  // m == 0 means no message at all: no wire time AND no latency — a leaf
  // supernode with no update rows must not charge the link.
  const InterconnectModel link{1e9, 1e-5};
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 0.0);
  EXPECT_DOUBLE_EQ(link.wire_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(link.transfer_time(-3), 0.0);
  // m == 1 does pay the latency.
  EXPECT_GE(link.transfer_time(1), 1e-5);
}

TEST(InterconnectModelTest, WireSecondsExcludesLatency) {
  const InterconnectModel link{1e8, 1e-3};
  const index_t m = 64;
  EXPECT_DOUBLE_EQ(link.wire_seconds(m),
                   InterconnectModel::update_bytes(m) / 1e8);
  EXPECT_DOUBLE_EQ(link.transfer_time(m), 1e-3 + link.wire_seconds(m));
  // Packed-lower byte count: m(m+1)/2 doubles.
  EXPECT_DOUBLE_EQ(InterconnectModel::update_bytes(3), 3.0 * 4 / 2 * 8);
}

TEST(ProportionalMapTest, SubtreeWorkAccumulates) {
  const TaskGraph g = test_graph();
  const std::vector<double> work = subtree_work(g);
  // Any root's subtree work equals the total over its descendants; the sum
  // over roots equals the sum of per-task work.
  double roots = 0.0, per_task = 0.0;
  for (index_t t = 0; t < g.num_tasks; ++t) {
    per_task += fu_total_ops(g.ms[static_cast<std::size_t>(t)],
                             g.ks[static_cast<std::size_t>(t)]) +
                g.assembly_entries[static_cast<std::size_t>(t)];
    if (g.parent[static_cast<std::size_t>(t)] == -1) {
      roots += work[static_cast<std::size_t>(t)];
    }
  }
  EXPECT_NEAR(roots, per_task, 1e-6 * per_task);
}

TEST(ProportionalMapTest, RootsOwnWorkerZeroAndRangesAreValid) {
  const TaskGraph g = test_graph();
  for (int workers : {1, 3, 8}) {
    const std::vector<int> map = proportional_mapping(g, workers);
    for (index_t t = 0; t < g.num_tasks; ++t) {
      EXPECT_GE(map[static_cast<std::size_t>(t)], 0);
      EXPECT_LT(map[static_cast<std::size_t>(t)], workers);
    }
  }
  // One worker: everything maps to it.
  const std::vector<int> one = proportional_mapping(g, 1);
  for (int w : one) EXPECT_EQ(w, 0);
}

TEST(ProportionalMapTest, BalancesWorkAcrossWorkers) {
  const TaskGraph g = test_graph();
  const std::vector<int> map = proportional_mapping(g, 2);
  const std::vector<double> work = subtree_work(g);
  double per_worker[2] = {0.0, 0.0};
  for (index_t t = 0; t < g.num_tasks; ++t) {
    per_worker[map[static_cast<std::size_t>(t)]] +=
        fu_total_ops(g.ms[static_cast<std::size_t>(t)],
                     g.ks[static_cast<std::size_t>(t)]);
  }
  // Neither worker should get less than ~15% of the leaf-level work (the
  // top separators are inherently on worker 0).
  const double total = per_worker[0] + per_worker[1];
  EXPECT_GT(per_worker[0] / total, 0.15);
  EXPECT_GT(per_worker[1] / total, 0.15);
}

TEST(ProportionalMapTest, FourWorkerLoadBalanceBound) {
  // Each task lands on exactly one worker (the mapping is a total
  // function), and no worker's share may exceed the proportional bound by
  // more than the largest indivisible subtree allows. 60% is a generous
  // ceiling for this mesh (perfect balance would be 25%).
  const TaskGraph g = test_graph();
  const std::vector<int> map = proportional_mapping(g, 4);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(g.num_tasks));
  double per_worker[4] = {0.0, 0.0, 0.0, 0.0};
  double total = 0.0;
  for (index_t t = 0; t < g.num_tasks; ++t) {
    const int w = map[static_cast<std::size_t>(t)];
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 4);
    const double work = fu_total_ops(g.ms[static_cast<std::size_t>(t)],
                                     g.ks[static_cast<std::size_t>(t)]);
    per_worker[w] += work;
    total += work;
  }
  for (int w = 0; w < 4; ++w) {
    EXPECT_LT(per_worker[w] / total, 0.60) << "worker " << w;
  }
}

}  // namespace
}  // namespace mfgpu
