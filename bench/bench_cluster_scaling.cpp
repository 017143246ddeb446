// Cluster scaling: the simulated distributed-memory factorization
// (cluster/cluster.hpp) swept over node counts x link speeds, with the
// asynchronous fan-both engine measured against the level-synchronous
// reference. Every swept point factors REAL numerics and is checked
// bitwise against the serial driver — the determinism contract the
// cluster subsystem guarantees.
#include "common.hpp"

#include <cmath>

#include "cluster/cluster.hpp"
#include "symbolic/tree_stats.hpp"

using namespace mfgpu;

namespace {

/// Serial reference run with the cluster's default node executor (the
/// paper's baseline hybrid on a private simulated device) — the factor
/// every cluster point must reproduce bitwise.
FactorizeResult serial_reference(const Analysis& analysis) {
  FactorContext ctx;
  Device::Options device_options;
  device_options.numeric = true;
  Device device(device_options);
  ctx.device = &device;
  const std::unique_ptr<FuExecutor> executor =
      default_worker_executor(WorkerSpec{true}, ExecutorOptions{});
  return factorize(analysis, *executor, ctx);
}

}  // namespace

int main() {
  const bench::BenchMatrix bm = bench::load_matrix(3);  // nastranb_s
  const TreeStats tree = supernode_tree_stats(bm.analysis.symbolic);
  std::printf("matrix %s: tree parallelism bound %.1fx\n",
              bm.problem.name.c_str(), tree.tree_parallelism());

  struct Link {
    const char* name;
    const char* key;
    InterconnectModel model;
  };
  const Link links[] = {
      {"infiniband 1 GB/s", "infiniband", infiniband_link()},
      {"gigabit 0.1 GB/s", "gigabit", gigabit_link()},
  };
  const int node_counts[] = {1, 2, 4, 8};

  obs::BenchRecord record = bench::make_bench_record("cluster_scaling");
  record.set_config("matrix", bm.problem.name);
  const auto higher = obs::MetricDirection::HigherIsBetter;
  const auto exact = obs::MetricDirection::Exact;
  const auto info = obs::MetricDirection::Info;

  const FactorizeResult serial = serial_reference(bm.analysis);
  const double serial_time = serial.trace.total_time;
  std::printf("serial reference: %.4f simulated s\n", serial_time);

  bool all_bitwise = true;
  bool fanboth_wins_somewhere = false;

  Table table("Cluster factorization: fan-both vs level-sync speedup over "
              "serial, per nodes x link (executed numerics)",
              {"nodes", "link", "fan-both", "level-sync", "fan-both edge",
               "messages", "MB on wire", "bitwise"});
  for (int nodes : node_counts) {
    for (const Link& link : links) {
      double makespan[2] = {0.0, 0.0};
      ClusterStats stats[2];
      bool bitwise[2] = {false, false};
      for (const ClusterEngine engine :
           {ClusterEngine::FanBoth, ClusterEngine::LevelSync}) {
        ClusterFactorizeOptions options;
        options.cluster.num_nodes = nodes;
        options.cluster.link = link.model;
        options.cluster.engine = engine;
        const std::size_t e = static_cast<std::size_t>(engine);
        const FactorizeResult result =
            factorize_cluster(bm.analysis, options, {}, &stats[e]);
        makespan[e] = result.trace.total_time;
        bitwise[e] = !first_factor_difference(result.factor, serial.factor);
        all_bitwise = all_bitwise && bitwise[e];
      }
      const double fanboth = serial_time / makespan[0];
      const double levelsync = serial_time / makespan[1];
      const double edge = makespan[1] / makespan[0];
      if (nodes > 1 && edge > 1.0) fanboth_wins_somewhere = true;
      table.add_row({static_cast<index_t>(nodes), link.name, fanboth,
                     levelsync, edge, stats[0].messages,
                     stats[0].bytes_on_wire / 1e6,
                     (bitwise[0] && bitwise[1]) ? "yes" : "NO"});

      std::string key = "n";
      key.append(std::to_string(nodes)).append(".").append(link.key);
      // The engines' virtual makespans are deterministic — gate the
      // speedups; traffic counts are structural and must match exactly.
      record.add_metric(key + ".fanboth_speedup", fanboth, higher);
      record.add_metric(key + ".levelsync_speedup", levelsync, info);
      record.add_metric(key + ".fanboth_edge", edge, higher);
      record.add_metric(key + ".messages",
                        static_cast<double>(stats[0].messages), exact);
      record.add_metric(key + ".bitwise",
                        (bitwise[0] && bitwise[1]) ? 1.0 : 0.0, exact);
    }
  }
  bench::emit(table, "cluster_scaling.csv");

  record.add_metric("bitwise_all", all_bitwise ? 1.0 : 0.0, exact);
  record.add_metric("fanboth_wins_somewhere",
                    fanboth_wins_somewhere ? 1.0 : 0.0, exact);
  bench::emit_bench_record(record);

  std::printf(
      "shape: fan-both removes the level barriers, so separator-bound "
      "levels no longer stall whole nodes; slower links flatten both "
      "curves as update matrices dominate the wire\n");
  if (!all_bitwise) {
    std::fprintf(stderr,
                 "FAIL: a cluster point diverged bitwise from serial\n");
    return 1;
  }
  if (!fanboth_wins_somewhere) {
    std::fprintf(stderr,
                 "FAIL: fan-both never beat level-sync on any point\n");
    return 1;
  }
  return 0;
}
