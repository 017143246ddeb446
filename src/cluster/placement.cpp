#include "cluster/placement.hpp"

#include <algorithm>
#include <limits>

#include "sched/proportional_map.hpp"

namespace mfgpu {
namespace {

/// Converts task work units (F-U flops + assembly entries) to seconds so
/// compute and wire cost share one objective. The refinement only needs
/// the ratio to be plausible, not calibrated.
constexpr double kOpsPerSecond = 2.0e9;
/// Refinement sweeps over the tree (each sweep visits every movable subtree
/// once, root to leaves); the refinement stops early when a sweep moves
/// nothing.
constexpr int kMaxPasses = 4;

std::vector<double> task_seconds(const TaskGraph& graph) {
  std::vector<double> seconds(static_cast<std::size_t>(graph.num_tasks), 0.0);
  for (index_t t = 0; t < graph.num_tasks; ++t) {
    seconds[static_cast<std::size_t>(t)] = graph.work(t) / kOpsPerSecond;
  }
  return seconds;
}

double max_load(const std::vector<double>& load) {
  double m = 0.0;
  for (double l : load) m = std::max(m, l);
  return m;
}

}  // namespace

double placement_cost(const TaskGraph& graph, const std::vector<int>& node_of,
                      const PlacementOptions& options) {
  const std::vector<double> seconds = task_seconds(graph);
  std::vector<double> load(static_cast<std::size_t>(options.num_nodes), 0.0);
  double comm = 0.0;
  for (index_t t = 0; t < graph.num_tasks; ++t) {
    load[static_cast<std::size_t>(node_of[static_cast<std::size_t>(t)])] +=
        seconds[static_cast<std::size_t>(t)];
    const index_t p = graph.parent[static_cast<std::size_t>(t)];
    if (p != -1 && node_of[static_cast<std::size_t>(t)] !=
                       node_of[static_cast<std::size_t>(p)]) {
      comm += options.link.transfer_time(graph.ms[static_cast<std::size_t>(t)]);
    }
  }
  return max_load(load) + comm;
}

PlacementResult place_subtrees(const TaskGraph& graph,
                               const PlacementOptions& options) {
  MFGPU_CHECK(options.num_nodes > 0, "place_subtrees: need nodes");
  PlacementResult result;
  result.node_of = proportional_mapping(graph, options.num_nodes);
  result.seed_cost = placement_cost(graph, result.node_of, options);
  result.refined_cost = result.seed_cost;
  if (options.num_nodes == 1 || graph.num_tasks == 0) {
    return result;
  }

  const std::vector<double> seconds = task_seconds(graph);
  std::vector<int>& node_of = result.node_of;

  // Incremental objective state: per-node compute load and the total
  // cross-edge transfer seconds.
  std::vector<double> load(static_cast<std::size_t>(options.num_nodes), 0.0);
  std::vector<double> subtree_seconds(
      static_cast<std::size_t>(graph.num_tasks), 0.0);
  double comm = 0.0;
  for (index_t t = 0; t < graph.num_tasks; ++t) {
    load[static_cast<std::size_t>(node_of[static_cast<std::size_t>(t)])] +=
        seconds[static_cast<std::size_t>(t)];
    subtree_seconds[static_cast<std::size_t>(t)] +=
        seconds[static_cast<std::size_t>(t)];
    const index_t p = graph.parent[static_cast<std::size_t>(t)];
    if (p != -1) {
      subtree_seconds[static_cast<std::size_t>(p)] +=
          subtree_seconds[static_cast<std::size_t>(t)];
      if (node_of[static_cast<std::size_t>(t)] !=
          node_of[static_cast<std::size_t>(p)]) {
        comm +=
            options.link.transfer_time(graph.ms[static_cast<std::size_t>(t)]);
      }
    }
  }

  // uniform[t]: the single node the whole subtree of t sits on, or -1 when
  // it straddles nodes. Only uniform subtrees move (moving one changes
  // exactly one cross edge — its root's message to the parent).
  auto recompute_uniform = [&](std::vector<int>& uniform) {
    for (index_t t = 0; t < graph.num_tasks; ++t) {
      int u = node_of[static_cast<std::size_t>(t)];
      for (index_t c : graph.children[static_cast<std::size_t>(t)]) {
        if (uniform[static_cast<std::size_t>(c)] != u) u = -1;
      }
      uniform[static_cast<std::size_t>(t)] = u;
    }
  };
  std::vector<int> uniform(static_cast<std::size_t>(graph.num_tasks), -1);
  recompute_uniform(uniform);

  auto move_subtree = [&](index_t root, int dst) {
    // Iterative DFS; every task in the subtree is on node_of[root].
    std::vector<index_t> stack{root};
    while (!stack.empty()) {
      const index_t t = stack.back();
      stack.pop_back();
      node_of[static_cast<std::size_t>(t)] = dst;
      for (index_t c : graph.children[static_cast<std::size_t>(t)]) {
        stack.push_back(c);
      }
    }
  };

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    // Root-to-leaf sweep (reverse postorder): parents settle before their
    // children consider chasing them.
    for (index_t t = graph.num_tasks - 1; t >= 0; --t) {
      const index_t p = graph.parent[static_cast<std::size_t>(t)];
      if (p == -1) continue;
      const int src = node_of[static_cast<std::size_t>(t)];
      if (uniform[static_cast<std::size_t>(t)] != src) continue;
      const int parent_node = node_of[static_cast<std::size_t>(p)];
      if (parent_node == src) continue;

      const double edge =
          options.link.transfer_time(graph.ms[static_cast<std::size_t>(t)]);
      const double w = subtree_seconds[static_cast<std::size_t>(t)];
      const double before = max_load(load) + comm;

      // Candidate destinations: the parent's node (kills the message) and
      // the least-loaded node (fixes imbalance); lowest id breaks ties.
      int least = 0;
      for (int n = 1; n < options.num_nodes; ++n) {
        if (load[static_cast<std::size_t>(n)] <
            load[static_cast<std::size_t>(least)]) {
          least = n;
        }
      }
      int best_dst = -1;
      double best_after = before;
      for (int dst : {parent_node, least}) {
        if (dst == src) continue;
        load[static_cast<std::size_t>(src)] -= w;
        load[static_cast<std::size_t>(dst)] += w;
        const double comm_after = (dst == parent_node) ? comm - edge : comm;
        const double after = max_load(load) + comm_after;
        load[static_cast<std::size_t>(src)] += w;
        load[static_cast<std::size_t>(dst)] -= w;
        if (after < best_after - 1e-15) {
          best_after = after;
          best_dst = dst;
        }
      }
      if (best_dst < 0) continue;

      load[static_cast<std::size_t>(src)] -= w;
      load[static_cast<std::size_t>(best_dst)] += w;
      if (best_dst == parent_node) comm -= edge;
      move_subtree(t, best_dst);
      ++result.moves;
      moved = true;
    }
    if (!moved) break;
    recompute_uniform(uniform);
  }

  result.refined_cost = max_load(load) + comm;
  return result;
}

}  // namespace mfgpu
