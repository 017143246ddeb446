// Tests for the scheduling building blocks of the distributed-memory
// (cluster) extension — the paper's stated future work: the per-supernode
// work, the interconnect model, and proportional subtree mapping. The
// engine that schedules on them is tested in tests/cluster/.
#include <gtest/gtest.h>

#include "ordering/nested_dissection.hpp"
#include "sched/interconnect.hpp"
#include "policy/policy.hpp"
#include "sched/proportional_map.hpp"
#include "sparse/generators.hpp"
#include "symbolic/symbolic_factor.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {
namespace {

const Analysis& test_analysis() {
  static const Analysis an = [] {
    const GridProblem p = make_laplacian_3d(8, 8, 6);
    return analyze(p.matrix, nested_dissection(p.coords));
  }();
  return an;
}

const SymbolicFactor& test_sym() { return test_analysis().symbolic; }

const std::vector<double>& test_work() {
  static const std::vector<double> work =
      supernode_work(test_sym(), test_analysis().permuted);
  return work;
}

/// Factor-update ops of supernode t.
double fu_ops(index_t t) {
  const SupernodeInfo& sn =
      test_sym().supernodes()[static_cast<std::size_t>(t)];
  return fu_total_ops(sn.num_update_rows(), sn.width());
}

TEST(SupernodeWorkTest, CoversFuOpsAndAssemblyOfEverySupernode) {
  const GridProblem p = make_laplacian_3d(5, 5, 3);
  const Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  const SymbolicFactor& sym = an.symbolic;
  const std::vector<double> work = supernode_work(sym, an.permuted);
  ASSERT_EQ(work.size(), static_cast<std::size_t>(sym.num_supernodes()));
  for (index_t t = 0; t < sym.num_supernodes(); ++t) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(t)];
    // Every supernode assembles at least its own panel on top of its F-U
    // ops.
    EXPECT_GE(work[static_cast<std::size_t>(t)] -
                  fu_total_ops(sn.num_update_rows(), sn.width()),
              static_cast<double>(sn.front_order() * sn.width()))
        << "supernode " << t;
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
  const SymbolicFactor& sym = test_sym();
  const std::vector<double> subtree =
      tree_sums(sym, test_work(), TreeSum::Subtree);
  // Any root's subtree work equals the total over its descendants; the sum
  // over roots equals the sum of per-supernode work.
  double roots = 0.0, per_task = 0.0;
  for (index_t t = 0; t < sym.num_supernodes(); ++t) {
    per_task += test_work()[static_cast<std::size_t>(t)];
    if (sym.supernodes()[static_cast<std::size_t>(t)].parent == -1) {
      roots += subtree[static_cast<std::size_t>(t)];
    }
  }
  EXPECT_NEAR(roots, per_task, 1e-6 * per_task);
}

TEST(ProportionalMapTest, RootsOwnWorkerZeroAndRangesAreValid) {
  const SymbolicFactor& sym = test_sym();
  for (int workers : {1, 3, 8}) {
    const std::vector<int> map =
        proportional_mapping(sym, test_work(), workers);
    for (index_t t = 0; t < sym.num_supernodes(); ++t) {
      EXPECT_GE(map[static_cast<std::size_t>(t)], 0);
      EXPECT_LT(map[static_cast<std::size_t>(t)], workers);
    }
  }
  // One worker: everything maps to it.
  const std::vector<int> one = proportional_mapping(sym, test_work(), 1);
  for (int w : one) EXPECT_EQ(w, 0);
}

TEST(ProportionalMapTest, BalancesWorkAcrossWorkers) {
  const std::vector<int> map = proportional_mapping(test_sym(), test_work(), 2);
  double per_worker[2] = {0.0, 0.0};
  for (index_t t = 0; t < test_sym().num_supernodes(); ++t) {
    per_worker[map[static_cast<std::size_t>(t)]] += fu_ops(t);
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
  const std::vector<int> map = proportional_mapping(test_sym(), test_work(), 4);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(test_sym().num_supernodes()));
  double per_worker[4] = {0.0, 0.0, 0.0, 0.0};
  double total = 0.0;
  for (index_t t = 0; t < test_sym().num_supernodes(); ++t) {
    const int w = map[static_cast<std::size_t>(t)];
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 4);
    const double work = fu_ops(t);
    per_worker[w] += work;
    total += work;
  }
  for (int w = 0; w < 4; ++w) {
    EXPECT_LT(per_worker[w] / total, 0.60) << "worker " << w;
  }
}

}  // namespace
}  // namespace mfgpu
