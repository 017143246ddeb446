#include "symbolic/tree_stats.hpp"

#include <algorithm>
#include <vector>

#include "dense/blas.hpp"
#include "support/error.hpp"

namespace mfgpu {

SupernodeHeights supernode_heights(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  const auto snodes = sym.supernodes();
  SupernodeHeights out;
  out.height.assign(static_cast<std::size_t>(nsup), 0);
  // Supernodes are postordered (children precede parents), so one forward
  // pass folds every child into its parent.
  for (index_t s = 0; s < nsup; ++s) {
    const index_t h = out.height[static_cast<std::size_t>(s)];
    out.num_levels = std::max(out.num_levels, h + 1);
    const index_t parent = snodes[static_cast<std::size_t>(s)].parent;
    if (parent == -1) continue;
    MFGPU_CHECK(parent > s, "supernode_heights: supernodes not postordered");
    auto& hp = out.height[static_cast<std::size_t>(parent)];
    hp = std::max(hp, h + 1);
  }
  return out;
}

std::vector<index_t> subtree_groups(const SymbolicFactor& sym,
                                    std::span<const double> work) {
  const index_t nsup = sym.num_supernodes();
  const auto snodes = sym.supernodes();
  MFGPU_CHECK(static_cast<index_t>(work.size()) == nsup,
              "subtree_groups: one work value per supernode");
  auto parent = [&](index_t s) {
    return snodes[static_cast<std::size_t>(s)].parent;
  };
  // Each subtree's work, folded into the parent in postorder.
  std::vector<double> subtree(static_cast<std::size_t>(nsup), 0.0);
  double total = 0.0;
  for (index_t s = 0; s < nsup; ++s) {
    const auto i = static_cast<std::size_t>(s);
    subtree[i] += work[i];
    if (parent(s) == -1) {
      total += subtree[i];
    } else {
      subtree[static_cast<std::size_t>(parent(s))] += subtree[i];
    }
  }

  // A light subtree under a heavy parent (or a light tree) closes a group
  // spanning its whole postorder range; a heavy supernode is a group of
  // its own. Subtree work only grows toward the root, so every supernode
  // lands in exactly one group and the groups tile 0..nsup-1 in order.
  const double grain = kSubtreeGroupShare * total;
  std::vector<index_t> ptr(1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    const bool light = subtree[static_cast<std::size_t>(s)] <= grain;
    const index_t p = parent(s);
    if (light && p != -1 && subtree[static_cast<std::size_t>(p)] <= grain) {
      continue;  // closed by the light ancestor
    }
    ptr.push_back(s + 1);
  }
  return ptr;
}

TreeStats supernode_tree_stats(const SymbolicFactor& sym) {
  TreeStats stats;
  stats.num_supernodes = sym.num_supernodes();
  const auto snodes = sym.supernodes();

  std::vector<char> has_child(static_cast<std::size_t>(stats.num_supernodes), 0);
  std::vector<index_t> depth(static_cast<std::size_t>(stats.num_supernodes), 0);
  std::vector<double> path_flops(static_cast<std::size_t>(stats.num_supernodes),
                                 0.0);

  // Supernodes are postordered (children before parents), so a reverse
  // sweep propagates depth/path data root-to-leaf.
  for (index_t s = stats.num_supernodes - 1; s >= 0; --s) {
    const SupernodeInfo& sn = snodes[static_cast<std::size_t>(s)];
    const double flops = static_cast<double>(potrf_ops(sn.width())) +
                         static_cast<double>(trsm_ops(sn.num_update_rows(),
                                                      sn.width())) +
                         static_cast<double>(syrk_ops(sn.num_update_rows(),
                                                      sn.width()));
    stats.total_flops += flops;
    stats.max_front_order =
        std::max(stats.max_front_order, sn.front_order());
    if (sn.parent != -1) {
      has_child[static_cast<std::size_t>(sn.parent)] = 1;
      depth[static_cast<std::size_t>(s)] =
          depth[static_cast<std::size_t>(sn.parent)] + 1;
      path_flops[static_cast<std::size_t>(s)] =
          path_flops[static_cast<std::size_t>(sn.parent)] + flops;
    } else {
      path_flops[static_cast<std::size_t>(s)] = flops;
    }
    stats.height = std::max(stats.height, depth[static_cast<std::size_t>(s)]);
    stats.critical_path_flops =
        std::max(stats.critical_path_flops, path_flops[static_cast<std::size_t>(s)]);
  }
  for (char c : has_child) {
    if (!c) ++stats.num_leaves;
  }
  return stats;
}

}  // namespace mfgpu
