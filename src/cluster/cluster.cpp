#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>

#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"
#include "sched/proportional_map.hpp"

namespace mfgpu {

const char* cluster_engine_name(ClusterEngine engine) noexcept {
  switch (engine) {
    case ClusterEngine::FanBoth: return "fan-both";
    case ClusterEngine::LevelSync: return "level-sync";
  }
  return "?";
}

namespace {

/// The cluster bookkeeping of one simulated node (its execution state is a
/// FrontWorker): its two interconnect lanes — send_free (egress: when the
/// wire out of this node is next idle) and recv_free (ingress: when this
/// node can next absorb a message). The lanes are virtual times, not
/// clocks: they let transfers overlap compute on both endpoints while
/// messages still serialize.
struct NodeState {
  double send_free = 0.0;
  double recv_free = 0.0;
};

}  // namespace

FactorizeResult factorize_cluster(const Analysis& analysis,
                                  const ClusterFactorizeOptions& options,
                                  const WorkerExecutorFactory& make_executor,
                                  ClusterStats* stats_out,
                                  Factorization recycled) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  const ClusterOptions& cluster = options.cluster;
  MFGPU_CHECK(cluster.num_nodes > 0,
              "factorize_cluster: need at least one node");
  const int num_nodes = cluster.num_nodes;
  const InterconnectModel& link = cluster.link;
  const bool wired = link.enabled();

  obs::ScopedSpan factorize_span("cluster", "factorize_cluster");
  factorize_span.set_arg(0, "supernodes", nsup);
  factorize_span.set_arg(1, "nodes", num_nodes);

  ClusterStats stats;
  stats.num_nodes = num_nodes;
  stats.engine = cluster.engine;

  if (nsup == 0) {
    if (stats_out != nullptr) *stats_out = stats;
    return {};
  }

  const std::vector<double> work = supernode_work(sym, analysis.permuted);
  const std::vector<double> bottom = bottom_levels(sym, work);

  PlacementOptions placement_options;
  placement_options.num_nodes = num_nodes;
  placement_options.link = link;
  const PlacementResult placement =
      place_subtrees(sym, work, placement_options);
  const std::vector<int>& node_of = placement.node_of;
  stats.placement_refined_cost = placement.refined_cost;
  stats.placement_moves = placement.moves;

  FrontTree::Setup setup;
  setup.num_lanes = num_nodes;
  FrontTree tree(analysis, options.numeric, setup, std::move(recycled));

  std::vector<FrontWorker> workers;
  workers.reserve(static_cast<std::size_t>(num_nodes));
  const WorkerSpec spec{cluster.nodes_have_gpu};
  for (int n = 0; n < num_nodes; ++n) {
    workers.emplace_back(tree, n, spec, options.device,
                         make_executor
                             ? make_executor(spec, n)
                             : default_worker_executor(spec, options.executor));
  }
  std::vector<NodeState> nodes(static_cast<std::size_t>(num_nodes));
  const auto clock_of = [&](int n) -> SimClock& {
    return workers[static_cast<std::size_t>(n)].ctx().host_clock;
  };

  auto update_rows = [&](index_t s) {
    return sym.supernodes()[static_cast<std::size_t>(s)].num_update_rows();
  };
  // A child's update is local when the link is shared memory, the producer
  // is the consumer, or the update is empty; otherwise it is a message.
  auto is_local = [&](index_t c, int dst) {
    return !wired || node_of[static_cast<std::size_t>(c)] == dst ||
           update_rows(c) <= 0;
  };

  // When child c's update can be consumed on node dst. The message leaves
  // the producer when both the update and the producer's egress lane are
  // free, occupies the wire for wire_seconds, then lands once the
  // consumer's ingress lane absorbed it (latency charged once per message).
  // `commit` mutates the lanes and traffic stats; the non-mutating variant
  // estimates start times during task selection.
  auto wire_time = [&](index_t c, int dst, bool commit) {
    if (is_local(c, dst)) return tree.update_ready(c);
    NodeState& src =
        nodes[static_cast<std::size_t>(node_of[static_cast<std::size_t>(c)])];
    NodeState& sink = nodes[static_cast<std::size_t>(dst)];
    const index_t m = update_rows(c);
    const double start = std::max(tree.update_ready(c), src.send_free);
    const double wire = link.wire_seconds(m);
    const double landed = std::max(start + wire + link.latency, sink.recv_free);
    if (commit) {
      src.send_free = start + wire;
      sink.recv_free = landed;
      ++stats.messages;
      stats.bytes_on_wire += InterconnectModel::update_bytes(m);
      stats.send_busy_seconds += wire;
    }
    return landed;
  };

  // Remote children are message arrivals, waited for as Transfer-class time
  // so the critical-path analyzer attributes wire stalls and rate reruns
  // scale them with the link; local children stay dependency joins.
  tree.remote_arrival = [&](index_t c, int n) -> std::optional<double> {
    if (is_local(c, n)) return std::nullopt;
    return wire_time(c, n, /*commit=*/true);
  };
  auto run_task = [&](index_t s) {
    workers[static_cast<std::size_t>(node_of[static_cast<std::size_t>(s)])]
        .run_front(s);
  };

  // Earliest virtual start of a ready task on its node, for selection.
  auto estimated_start = [&](index_t s) {
    const int n = node_of[static_cast<std::size_t>(s)];
    double est = clock_of(n).now();
    for (index_t c : sym.children(s)) {
      est = std::max(est, wire_time(c, n, /*commit=*/false));
    }
    return est;
  };

  // Pick the ready task with the earliest estimated start; critical-path
  // bottom level, then supernode index, break ties. Deterministic: the
  // scan order and every key are placement-state functions, never memory
  // addresses or wall clock.
  auto pick_next = [&](std::vector<index_t>& ready) {
    std::size_t best = 0;
    double best_est = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const index_t t = ready[i];
      const double est = estimated_start(t);
      const index_t b = ready[best];
      const bool better =
          est < best_est ||
          (est == best_est &&
           (bottom[static_cast<std::size_t>(t)] >
                bottom[static_cast<std::size_t>(b)] ||
            (bottom[static_cast<std::size_t>(t)] ==
                 bottom[static_cast<std::size_t>(b)] &&
             t < b)));
      if (i == 0 || better) {
        best = i;
        best_est = est;
      }
    }
    const index_t t = ready[best];
    ready[best] = ready.back();
    ready.pop_back();
    return t;
  };

  std::vector<index_t> pending(static_cast<std::size_t>(nsup), 0);
  for (index_t t = 0; t < nsup; ++t) {
    pending[static_cast<std::size_t>(t)] =
        static_cast<index_t>(sym.children(t).size());
  }

  if (cluster.engine == ClusterEngine::FanBoth) {
    // Asynchronous fan-both: no barriers of any kind. Any task whose
    // children have published may run; messages fan OUT of producers and
    // IN to consumers concurrently on the per-node lanes.
    std::vector<index_t> ready;
    for (index_t t = 0; t < nsup; ++t) {
      if (pending[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
    }
    index_t executed_total = 0;
    while (!ready.empty()) {
      const index_t s = pick_next(ready);
      run_task(s);
      ++executed_total;
      const index_t p = sym.supernodes()[static_cast<std::size_t>(s)].parent;
      if (p != -1 && --pending[static_cast<std::size_t>(p)] == 0) {
        ready.push_back(p);
      }
    }
    MFGPU_CHECK(executed_total == nsup,
                "factorize_cluster: not all supernodes executed");
  } else {
    // Level-synchronous reference: the elimination tree is swept height by
    // height with a global barrier after every level — the classic
    // fan-in/fan-out discipline the asynchronous engine is measured
    // against.
    std::vector<std::vector<index_t>> levels(
        static_cast<std::size_t>(sym.num_levels()));
    for (index_t t = 0; t < nsup; ++t) {
      levels[static_cast<std::size_t>(sym.height(t))].push_back(t);
    }
    for (auto& level : levels) {
      std::vector<index_t> ready = level;
      while (!ready.empty()) {
        const index_t s = pick_next(ready);
        run_task(s);
      }
      // Barrier: every node (and its lanes) waits for the level.
      double level_end = 0.0;
      for (int n = 0; n < num_nodes; ++n) {
        level_end = std::max(level_end, clock_of(n).now());
      }
      for (int n = 0; n < num_nodes; ++n) {
        NodeState& node = nodes[static_cast<std::size_t>(n)];
        clock_of(n).advance_to(level_end);
        node.send_free = std::max(node.send_free, level_end);
        node.recv_free = std::max(node.recv_free, level_end);
      }
    }
  }

  FactorizeResult result = tree.finish(workers);
  stats.makespan = result.trace.total_time;
  stats.max_node_seconds = stats.makespan;

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge_set("cluster.nodes", static_cast<double>(num_nodes));
    metrics.add("cluster.makespan_seconds", stats.makespan);
    metrics.add("cluster.messages", static_cast<double>(stats.messages));
    metrics.add("cluster.bytes_on_wire", stats.bytes_on_wire);
    metrics.add("cluster.send_busy_seconds", stats.send_busy_seconds);
    metrics.gauge_set("cluster.placement.moves",
                      static_cast<double>(stats.placement_moves));
    metrics.gauge_set("cluster.placement.cost", stats.placement_refined_cost);
  }

  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace mfgpu
