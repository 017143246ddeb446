// Algorithms over the assembly tree the symbolic factor owns, shared by the
// factor's pool plan, the cluster engine and the solve sweeps: folds of
// per-supernode values, the tree condensed into a task DAG, the
// subtree-to-core cut, and the tree's shape and available parallelism —
// which drive scheduling decisions and the reports the benches print (e.g.
// why 3-D problems parallelize/offload better than 2-D ones — the paper's
// closing remark).
#pragma once

#include <span>
#include <vector>

#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// A fold of per-supernode values `own` along the assembly tree.
enum class TreeSum {
  /// Each supernode's sum over its subtree: its children's subtree sums in
  /// ascending order, then its own value.
  Subtree,
  /// Each supernode's sum along its path up to its root: its own value plus
  /// its parent's path sum.
  RootPath,
};

std::vector<double> tree_sums(const SymbolicFactor& sym,
                              std::span<const double> own, TreeSum sum);

/// The assembly tree condensed onto a partition of its supernodes into
/// nodes, in the pool's CSR form (sched/thread_pool.hpp GraphDag): node g
/// notifies succ[succ_ptr[g] .. succ_ptr[g+1]) when done, and is ready once
/// num_deps[g] notifications arrived.
struct CondensedDag {
  std::vector<index_t> succ_ptr;
  std::vector<index_t> succ;
  std::vector<index_t> num_deps;
};

/// The DAG of `num_nodes` nodes with supernode s in node node_of[s]: one
/// edge from node_of[s] to node_of[parent] for every supernode whose parent
/// lies in another node, each node's edges by ascending supernode. Two
/// members of a node with parents in one other node give two edges (the
/// pool counts each).
CondensedDag condense_tree(const SymbolicFactor& sym,
                           std::span<const index_t> node_of,
                           index_t num_nodes);

/// Largest share of the total work one subtree group of subtree_groups()
/// may carry.
inline constexpr double kSubtreeGroupShare = 1.0 / 64.0;

/// The subtree-to-core cut of the assembly tree (after Le Fevre et al.'s
/// A64FX solver), shared by the parallel factor and the solve sweeps: every
/// maximal subtree whose work is at most kSubtreeGroupShare of the whole
/// becomes one group, walked in postorder by one task, and each supernode
/// above the cut is a group of its own. `work` is each supernode's own
/// work. Returns the group boundaries: group g is the postorder range
/// [ptr[g], ptr[g+1]), and its last member is the root of the subtree the
/// group covers.
std::vector<index_t> subtree_groups(const SymbolicFactor& sym,
                                    std::span<const double> work);

struct TreeStats {
  index_t num_supernodes = 0;
  index_t num_leaves = 0;
  index_t height = 0;  ///< edges on the longest root-to-leaf path
  index_t max_front_order = 0;
  double total_flops = 0.0;
  /// Factor-update flops along the heaviest root-to-leaf path: a lower
  /// bound on any tree-parallel schedule.
  double critical_path_flops = 0.0;

  /// Upper bound on tree-level speedup: total work / critical path.
  double tree_parallelism() const {
    return (critical_path_flops > 0.0) ? total_flops / critical_path_flops
                                       : 1.0;
  }
};

TreeStats supernode_tree_stats(const SymbolicFactor& sym);

}  // namespace mfgpu
