#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "gpusim/cost_class.hpp"
#include "gpusim/fault_injector.hpp"
#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"
#include "sched/task_graph.hpp"

namespace mfgpu {

const char* cluster_engine_name(ClusterEngine engine) noexcept {
  switch (engine) {
    case ClusterEngine::FanBoth: return "fan-both";
    case ClusterEngine::LevelSync: return "level-sync";
  }
  return "?";
}

ClusterOptions parse_cluster(const std::string& spec) {
  ClusterOptions options;
  if (spec == "off" || spec.empty()) {
    options.num_nodes = 0;
    return options;
  }
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::size_t end = (comma == std::string::npos) ? spec.size() : comma;
    tokens.push_back(spec.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  char* parse_end = nullptr;
  const double nodes = std::strtod(tokens.front().c_str(), &parse_end);
  // Range-check before converting: casting NaN, inf or anything past
  // INT_MAX to int is undefined behaviour.
  const bool in_range =
      nodes >= 1.0 &&
      nodes <= static_cast<double>(std::numeric_limits<int>::max());
  if (parse_end == tokens.front().c_str() || *parse_end != '\0' ||
      !in_range || nodes != std::floor(nodes)) {
    throw InvalidArgumentError("parse_cluster: bad node count in '" + spec +
                               "'");
  }
  options.num_nodes = static_cast<int>(nodes);
  std::string link_spec;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "fanboth") {
      options.engine = ClusterEngine::FanBoth;
    } else if (token == "levelsync") {
      options.engine = ClusterEngine::LevelSync;
    } else if (token == "norefine") {
      options.refine_placement = false;
    } else if (token == "nogpu") {
      options.nodes_have_gpu = false;
    } else {
      if (!link_spec.empty()) link_spec += ',';
      link_spec += token;
    }
  }
  if (!link_spec.empty()) options.link = parse_link(link_spec);
  return options;
}

std::string cluster_description(const ClusterOptions& options) {
  if (!options.enabled()) return "off";
  return std::to_string(options.num_nodes) + " nodes, " +
         cluster_engine_name(options.engine) + ", " +
         link_description(options.link);
}

namespace {

/// The cluster bookkeeping of one simulated node (its execution state is a
/// FrontWorker): its two interconnect lanes — send_free (egress: when the
/// wire out of this node is next idle) and recv_free (ingress: when this
/// node can next absorb a message) — and its death schedule. The lanes are
/// virtual times, not clocks: they let transfers overlap compute on both
/// endpoints while messages still serialize.
struct NodeState {
  double send_free = 0.0;
  double recv_free = 0.0;
  bool dead = false;
  index_t executed = 0;
  index_t death_after = -1;  ///< dies after this many executed tasks; -1 = never
};

/// Salt mixed into the death draws so they never collide with the device
/// fault injector's per-front scopes.
constexpr std::uint64_t kDeathScope = 0x636c757374ULL;  // "clust"

}  // namespace

FactorizeResult factorize_cluster(const Analysis& analysis,
                                  const ClusterFactorizeOptions& options,
                                  const WorkerExecutorFactory& make_executor,
                                  ClusterStats* stats_out) {
  const index_t nsup = analysis.symbolic.num_supernodes();
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

  const TaskGraph graph = build_task_graph(analysis.symbolic,
                                           analysis.permuted);
  const std::vector<double> bottom = bottom_levels(graph);

  PlacementOptions placement_options;
  placement_options.num_nodes = num_nodes;
  placement_options.link = link;
  placement_options.refine = cluster.refine_placement;
  PlacementResult placement = place_subtrees(graph, placement_options);
  std::vector<int> node_of = std::move(placement.node_of);
  stats.placement_seed_cost = placement.seed_cost;
  stats.placement_refined_cost = placement.refined_cost;
  stats.placement_moves = placement.moves;

  FrontTree::Setup setup;
  setup.num_lanes = num_nodes;
  setup.parallel = true;
  FrontTree tree(analysis, options.numeric, setup);

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

  // Remaining assigned work per node (death failover picks the least
  // loaded survivor) and the deterministic death draws: whether node n dies
  // and after how many of its assigned tasks are pure functions of
  // (death_seed, n) — independent of execution order.
  std::vector<double> remaining(static_cast<std::size_t>(num_nodes), 0.0);
  std::vector<index_t> assigned(static_cast<std::size_t>(num_nodes), 0);
  for (index_t t = 0; t < nsup; ++t) {
    const std::size_t n = static_cast<std::size_t>(node_of[static_cast<std::size_t>(t)]);
    remaining[n] += graph.work(t);
    ++assigned[n];
  }
  if (cluster.node_death_rate > 0.0) {
    for (int n = 0; n < num_nodes; ++n) {
      if (assigned[static_cast<std::size_t>(n)] == 0) continue;
      const std::uint64_t scope =
          kDeathScope ^ static_cast<std::uint64_t>(n);
      if (FaultInjector::uniform(cluster.death_seed, scope, 0) >=
          cluster.node_death_rate) {
        continue;
      }
      const double u = FaultInjector::uniform(cluster.death_seed, scope, 1);
      const index_t span = assigned[static_cast<std::size_t>(n)];
      nodes[static_cast<std::size_t>(n)].death_after = std::clamp<index_t>(
          1 + static_cast<index_t>(u * static_cast<double>(span - 1)), 1,
          span);
    }
  }
  int alive = num_nodes;

  // The node that produced each published update (for message routing — a
  // dead node's published updates stay readable, i.e. checkpointed).
  std::vector<int> producer_node(static_cast<std::size_t>(nsup), -1);
  std::vector<char> done(static_cast<std::size_t>(nsup), 0);

  // A child's update is local when the link is shared memory, the producer
  // is the consumer, or the update is empty; otherwise it is a message.
  auto is_local = [&](index_t c, int dst) {
    return !wired || producer_node[static_cast<std::size_t>(c)] == dst ||
           graph.ms[static_cast<std::size_t>(c)] <= 0;
  };

  // When child c's update can be consumed on node dst. The message leaves
  // the producer when both the update and the producer's egress lane are
  // free, occupies the wire for wire_seconds, then lands once the
  // consumer's ingress lane absorbed it (latency charged once per message).
  // `commit` mutates the lanes and traffic stats; the non-mutating variant
  // estimates start times during task selection.
  auto wire_time = [&](index_t c, int dst, bool commit) {
    if (is_local(c, dst)) return tree.update_ready(c);
    NodeState& src = nodes[static_cast<std::size_t>(
        producer_node[static_cast<std::size_t>(c)])];
    NodeState& sink = nodes[static_cast<std::size_t>(dst)];
    const index_t m = graph.ms[static_cast<std::size_t>(c)];
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
  auto run_task = [&](index_t s, int n) {
    workers[static_cast<std::size_t>(n)].run_front(s);
    producer_node[static_cast<std::size_t>(s)] = n;
  };

  // Node death: re-place every unexecuted task of the dead node onto the
  // least-loaded survivor, which stalls for a failure-detection window
  // before picking the work up. Published updates survive (checkpointed),
  // so the numerics are untouched — only the schedule shifts.
  auto kill_node = [&](int n) {
    NodeState& node = nodes[static_cast<std::size_t>(n)];
    node.dead = true;
    ++stats.node_deaths;
    --alive;
    const double death_time = clock_of(n).now();
    int target = -1;
    for (int x = 0; x < num_nodes; ++x) {
      if (nodes[static_cast<std::size_t>(x)].dead) continue;
      if (target < 0 || remaining[static_cast<std::size_t>(x)] <
                            remaining[static_cast<std::size_t>(target)]) {
        target = x;
      }
    }
    MFGPU_CHECK(target >= 0, "factorize_cluster: no surviving node");
    for (index_t t = 0; t < nsup; ++t) {
      if (done[static_cast<std::size_t>(t)] != 0 ||
          node_of[static_cast<std::size_t>(t)] != n) {
        continue;
      }
      node_of[static_cast<std::size_t>(t)] = target;
      remaining[static_cast<std::size_t>(target)] += graph.work(t);
      ++stats.replaced_tasks;
    }
    remaining[static_cast<std::size_t>(n)] = 0.0;
    {
      CostClassScope transfer(CostClass::Transfer);
      clock_of(target).advance_to(death_time + 10.0 * link.latency);
    }
  };

  auto finish_task = [&](index_t s) {
    const int n = node_of[static_cast<std::size_t>(s)];
    NodeState& node = nodes[static_cast<std::size_t>(n)];
    done[static_cast<std::size_t>(s)] = 1;
    remaining[static_cast<std::size_t>(n)] -= graph.work(s);
    ++node.executed;
    if (node.death_after >= 0 && !node.dead &&
        node.executed >= node.death_after && alive > 1) {
      kill_node(n);
    }
  };

  // Earliest virtual start of a ready task on its node, for selection.
  auto estimated_start = [&](index_t s) {
    const int n = node_of[static_cast<std::size_t>(s)];
    double est = clock_of(n).now();
    for (index_t c : graph.children[static_cast<std::size_t>(s)]) {
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
    pending[static_cast<std::size_t>(t)] = static_cast<index_t>(
        graph.children[static_cast<std::size_t>(t)].size());
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
      run_task(s, node_of[static_cast<std::size_t>(s)]);
      finish_task(s);
      ++executed_total;
      const index_t p = graph.parent[static_cast<std::size_t>(s)];
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
    std::vector<index_t> height(static_cast<std::size_t>(nsup), 0);
    index_t num_levels = 1;
    for (index_t t = 0; t < nsup; ++t) {
      const index_t p = graph.parent[static_cast<std::size_t>(t)];
      if (p != -1) {
        height[static_cast<std::size_t>(p)] =
            std::max(height[static_cast<std::size_t>(p)],
                     height[static_cast<std::size_t>(t)] + 1);
      }
      num_levels = std::max(num_levels, height[static_cast<std::size_t>(t)] + 1);
    }
    std::vector<std::vector<index_t>> levels(
        static_cast<std::size_t>(num_levels));
    for (index_t t = 0; t < nsup; ++t) {
      levels[static_cast<std::size_t>(height[static_cast<std::size_t>(t)])]
          .push_back(t);
    }
    for (auto& level : levels) {
      std::vector<index_t> ready = level;
      while (!ready.empty()) {
        const index_t s = pick_next(ready);
        run_task(s, node_of[static_cast<std::size_t>(s)]);
        finish_task(s);
      }
      // Barrier: every surviving node (and its lanes) waits for the level.
      double level_end = 0.0;
      for (int n = 0; n < num_nodes; ++n) {
        if (!nodes[static_cast<std::size_t>(n)].dead) {
          level_end = std::max(level_end, clock_of(n).now());
        }
      }
      for (int n = 0; n < num_nodes; ++n) {
        NodeState& node = nodes[static_cast<std::size_t>(n)];
        if (node.dead) continue;
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
    if (stats.node_deaths > 0) {
      metrics.add("cluster.node_deaths",
                  static_cast<double>(stats.node_deaths));
      metrics.add("cluster.replaced_tasks",
                  static_cast<double>(stats.replaced_tasks));
    }
  }

  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace mfgpu
