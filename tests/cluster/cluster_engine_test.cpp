// Tests for the simulated distributed-cluster factorization
// (cluster/cluster.hpp): the bitwise-determinism contract against the
// serial driver, the asynchronous fan-both engine against the
// level-synchronous reference, multi-worker scaling on shared-memory
// nodes (the schedule behind Table VII's multi-worker columns), placement
// invariants, and the schedule flight record per node.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/placement.hpp"
#include "helpers/factor_bitwise.hpp"
#include "obs/schedule_record.hpp"
#include "obs/whatif.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/executors.hpp"
#include "sched/task_graph.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

using testing_helpers::factors_bitwise_equal;

const GridProblem& test_problem() {
  static const GridProblem p = make_laplacian_3d(8, 7, 6);
  return p;
}

const Analysis& test_analysis() {
  static const Analysis an =
      analyze(test_problem().matrix, nested_dissection(test_problem().coords));
  return an;
}

/// Serial reference with the cluster's default node executor (baseline
/// hybrid on a private simulated device).
FactorizeResult serial_reference(const Analysis& analysis,
                                 Device::Options device_options = {}) {
  FactorContext ctx;
  device_options.numeric = true;
  Device device(device_options);
  ctx.device = &device;
  const std::unique_ptr<FuExecutor> executor =
      default_worker_executor(WorkerSpec{true}, ExecutorOptions{});
  return factorize(analysis, *executor, ctx);
}

/// GPU-forcing chooser for the fault tests (the test grids' fronts are
/// small enough that the baseline thresholds would keep everything on P1).
Policy always_p3(const FuCall&) { return Policy::P3; }

TEST(ClusterEngineTest, FactorIsBitwiseSerialAcrossNodesLinksEngines) {
  const FactorizeResult serial = serial_reference(test_analysis());
  for (int nodes : {1, 2, 4, 8}) {
    for (const InterconnectModel& link : {infiniband_link(), gigabit_link()}) {
      for (const ClusterEngine engine :
           {ClusterEngine::FanBoth, ClusterEngine::LevelSync}) {
        ClusterFactorizeOptions options;
        options.cluster.num_nodes = nodes;
        options.cluster.link = link;
        options.cluster.engine = engine;
        const FactorizeResult result =
            factorize_cluster(test_analysis(), options);
        EXPECT_TRUE(factors_bitwise_equal(serial.factor, result.factor))
            << nodes << " nodes " << cluster_engine_name(engine);
      }
    }
  }
}

TEST(ClusterEngineTest, RepeatRunsAreFullyDeterministic) {
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = 4;
  const auto run = [&] {
    ClusterStats stats;
    FactorizeResult result =
        factorize_cluster(test_analysis(), options, {}, &stats);
    return std::make_pair(std::move(result), stats);
  };
  const auto [first, first_stats] = run();
  const auto [second, second_stats] = run();
  EXPECT_EQ(first_stats.makespan, second_stats.makespan);
  EXPECT_EQ(first_stats.messages, second_stats.messages);
  EXPECT_EQ(first_stats.bytes_on_wire, second_stats.bytes_on_wire);
  EXPECT_EQ(first_stats.send_busy_seconds, second_stats.send_busy_seconds);
  EXPECT_EQ(first.trace.total_time, second.trace.total_time);
  EXPECT_TRUE(factors_bitwise_equal(first.factor, second.factor))
      << "repeat run";
}

TEST(ClusterEngineTest, FanBothBeatsLevelSync) {
  // The async engine's whole point: without level barriers no node stalls
  // on a level it has no work in. It must never be meaningfully slower and
  // must strictly win somewhere in the sweep.
  bool strict_win = false;
  for (int nodes : {2, 4, 8}) {
    for (const InterconnectModel& link : {infiniband_link(), gigabit_link()}) {
      double makespan[2] = {0.0, 0.0};
      for (const ClusterEngine engine :
           {ClusterEngine::FanBoth, ClusterEngine::LevelSync}) {
        ClusterFactorizeOptions options;
        options.cluster.num_nodes = nodes;
        options.cluster.link = link;
        options.cluster.engine = engine;
        ClusterStats stats;
        factorize_cluster(test_analysis(), options, {}, &stats);
        makespan[static_cast<std::size_t>(engine)] = stats.makespan;
      }
      EXPECT_LE(makespan[0], makespan[1] * 1.001)
          << nodes << " nodes, " << link.bandwidth << " B/s";
      strict_win = strict_win || makespan[0] < makespan[1] * 0.999;
    }
  }
  EXPECT_TRUE(strict_win) << "fan-both never beat level-sync";
}

TEST(ClusterEngineTest, MessagesFlowOnlyWhenWiredAndMultiNode) {
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = 1;
  ClusterStats one;
  factorize_cluster(test_analysis(), options, {}, &one);
  EXPECT_EQ(one.messages, 0);
  EXPECT_EQ(one.bytes_on_wire, 0.0);

  options.cluster.num_nodes = 4;
  options.cluster.link = shared_memory_link();
  ClusterStats shared;
  factorize_cluster(test_analysis(), options, {}, &shared);
  EXPECT_EQ(shared.messages, 0);

  options.cluster.link = infiniband_link();
  ClusterStats wired;
  factorize_cluster(test_analysis(), options, {}, &wired);
  EXPECT_GT(wired.messages, 0);
  EXPECT_GT(wired.bytes_on_wire, 0.0);
  EXPECT_GT(wired.send_busy_seconds, 0.0);
  // Traffic shows up in the makespan: shipping updates cannot be free.
  EXPECT_GE(wired.makespan, shared.makespan);
}

TEST(ClusterEngineTest, FactorStaysBitwiseUnderDeviceFaults) {
  // Device-fault fates are front-scoped, never placement-scoped: the same
  // fronts fault and retry on the cluster as in the serial run, and the
  // factor stays bitwise identical.
  Device::Options faulty;
  faulty.faults.seed = 5;
  faulty.faults.transient_kernel_rate = 0.05;
  faulty.faults.transfer_corruption_rate = 0.05;
  const WorkerExecutorFactory chaos_factory = [](const WorkerSpec&, int) {
    return std::make_unique<DispatchExecutor>("cluster-chaos", always_p3);
  };

  FactorContext serial_ctx;
  Device::Options serial_device = faulty;
  serial_device.numeric = true;
  Device device(serial_device);
  serial_ctx.device = &device;
  DispatchExecutor serial_executor("cluster-chaos", always_p3);
  const FactorizeResult serial =
      factorize(test_analysis(), serial_executor, serial_ctx);
  ASSERT_GT(serial.faults_survived, 0) << "schedule never faulted";

  for (int nodes : {2, 4}) {
    ClusterFactorizeOptions options;
    options.cluster.num_nodes = nodes;
    options.device = faulty;
    const FactorizeResult result =
        factorize_cluster(test_analysis(), options, chaos_factory);
    EXPECT_EQ(result.faults_survived, serial.faults_survived)
        << nodes << " nodes";
    EXPECT_TRUE(factors_bitwise_equal(serial.factor, result.factor))
        << nodes << " nodes under faults";
  }
}

TEST(ClusterEngineTest, RecorderGetsOneLanePerNodeAndReplaysBitwise) {
  obs::ScheduleRecorder recorder;
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = 4;
  options.numeric.recorder = &recorder;
  ClusterStats stats;
  factorize_cluster(test_analysis(), options, {}, &stats);
  const obs::ScheduleRecord record = recorder.take();

  ASSERT_EQ(record.lanes.size(), 4u);
  EXPECT_EQ(record.makespan, stats.makespan);

  // Identity replay reproduces the live makespan bitwise — the same
  // acceptance bar as the thread-parallel drivers.
  const obs::ReplayResult replay = obs::replay_exact(record);
  EXPECT_EQ(replay.live_makespan, record.makespan);
  EXPECT_EQ(replay.makespan, record.makespan);

  // Remote arrivals are Transfer-class waits: an infinitely fast wire can
  // only shrink the makespan, and must strictly shrink it here (the sweep
  // above shows real wire stalls at 4 nodes on infiniband).
  obs::WhatIfKnobs faster_wire;
  faster_wire.transfer_scale = 0.0;
  const obs::WhatIfResult wi = obs::whatif_replay(record, faster_wire);
  EXPECT_LE(wi.makespan, record.makespan);
}

TEST(ClusterEngineTest, WiredRunReportsMakespanTrafficAndOneLanePerNode) {
  const FactorizeResult serial = serial_reference(test_analysis());
  obs::ScheduleRecorder recorder;
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = 4;
  options.cluster.link = infiniband_link();
  options.numeric.recorder = &recorder;
  ClusterStats stats;
  const FactorizeResult result =
      factorize_cluster(test_analysis(), options, {}, &stats);

  EXPECT_EQ(stats.num_nodes, 4);
  EXPECT_GT(stats.messages, 0);
  EXPECT_EQ(stats.makespan, result.trace.total_time);
  EXPECT_EQ(recorder.take().lanes.size(), 4u);
  EXPECT_TRUE(factors_bitwise_equal(serial.factor, result.factor));
}

/// The multi-worker scheduling grid: a 10x10x6 Laplacian under nested
/// dissection.
const Analysis& scaling_analysis() {
  static const GridProblem p = make_laplacian_3d(10, 10, 6);
  static const Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  return an;
}

/// Virtual makespan of `nodes` CPU-only (P1) nodes joined by `link`.
double cpu_makespan(int nodes, const InterconnectModel& link) {
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = nodes;
  options.cluster.link = link;
  options.cluster.nodes_have_gpu = false;
  options.numeric.store_factor = false;
  ClusterStats stats;
  factorize_cluster(scaling_analysis(), options, {}, &stats);
  return stats.makespan;
}

TEST(ClusterEngineTest, SharedMemoryNodesShortenTheMakespan) {
  // Threads on one host are nodes on a zero-cost link: more of them must
  // shorten the makespan, and never by more than their count.
  const double t1 = cpu_makespan(1, shared_memory_link());
  const double t2 = cpu_makespan(2, shared_memory_link());
  const double t4 = cpu_makespan(4, shared_memory_link());
  EXPECT_LT(t2, t1);
  EXPECT_LT(t4, t2);
  EXPECT_LE(t1, 4.0 * t4);
}

TEST(ClusterEngineTest, OneNodeIgnoresTheLink) {
  // A single node never sends a message, so the wire cannot matter.
  EXPECT_EQ(cpu_makespan(1, shared_memory_link()),
            cpu_makespan(1, gigabit_link()));
}

TEST(ClusterEngineTest, FourNodesScaleOnAReasonableLink) {
  // On a 1 GB/s, 5 us link, 4 nodes with subtree locality must still give
  // a real speedup over one node (the cluster-version feasibility the
  // paper wanted to establish).
  const InterconnectModel link{1e9, 5e-6};
  EXPECT_GT(cpu_makespan(1, link) / cpu_makespan(4, link), 1.3);
}

TEST(ClusterPlacementTest, EveryTaskPlacedOnceAndRefinementNeverHurts) {
  const TaskGraph graph =
      build_task_graph(test_analysis().symbolic, test_analysis().permuted);
  for (int nodes : {1, 2, 4, 8}) {
    PlacementOptions options;
    options.num_nodes = nodes;
    options.link = gigabit_link();
    const PlacementResult placement = place_subtrees(graph, options);
    ASSERT_EQ(placement.node_of.size(),
              static_cast<std::size_t>(graph.num_tasks));
    for (int n : placement.node_of) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, nodes);
    }
    EXPECT_LE(placement.refined_cost, placement.seed_cost * (1.0 + 1e-12))
        << nodes << " nodes";
  }
}

}  // namespace
}  // namespace mfgpu
