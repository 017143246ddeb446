// Assembly-tree statistics: shape and available parallelism of the
// supernodal elimination tree. These drive scheduling decisions and the
// reports the benches print (e.g. why 3-D problems parallelize/offload
// better than 2-D ones — the paper's closing remark).
#pragma once

#include <span>
#include <vector>

#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// Etree height of every supernode above the leaves. Fronts of one height
/// are never ancestor-related: the level-synchronous sweeps and same-level
/// batching both rely on that.
struct SupernodeHeights {
  /// Per supernode: leaves 0, a parent one above its highest child.
  std::vector<index_t> height;
  /// 1 + the largest height; 0 without supernodes.
  index_t num_levels = 0;
};

SupernodeHeights supernode_heights(const SymbolicFactor& sym);

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
