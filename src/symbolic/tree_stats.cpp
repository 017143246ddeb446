#include "symbolic/tree_stats.hpp"

#include <algorithm>
#include <vector>

#include "dense/blas.hpp"
#include "support/error.hpp"

namespace mfgpu {

std::vector<double> tree_sums(const SymbolicFactor& sym,
                              std::span<const double> own, TreeSum sum) {
  const index_t nsup = sym.num_supernodes();
  MFGPU_CHECK(static_cast<index_t>(own.size()) == nsup,
              "tree_sums: one value per supernode");
  const auto snodes = sym.supernodes();
  std::vector<double> out(static_cast<std::size_t>(nsup), 0.0);
  // Supernodes are postordered (children precede parents): an ascending
  // pass folds children into parents, a descending one parents into
  // children.
  if (sum == TreeSum::Subtree) {
    for (std::size_t s = 0; s < out.size(); ++s) {
      out[s] += own[s];
      const index_t p = snodes[s].parent;
      if (p != -1) out[static_cast<std::size_t>(p)] += out[s];
    }
  } else {
    for (std::size_t s = out.size(); s-- > 0;) {
      const index_t p = snodes[s].parent;
      out[s] = p == -1 ? own[s] : own[s] + out[static_cast<std::size_t>(p)];
    }
  }
  return out;
}

CondensedDag condense_tree(const SymbolicFactor& sym,
                           std::span<const index_t> node_of,
                           index_t num_nodes) {
  const auto snodes = sym.supernodes();
  MFGPU_CHECK(node_of.size() == snodes.size(),
              "condense_tree: one node per supernode");
  // The parent's node when it differs from s's, else -1.
  auto crossing = [&](std::size_t s) {
    const index_t p = snodes[s].parent;
    return p != -1 && node_of[static_cast<std::size_t>(p)] != node_of[s]
               ? node_of[static_cast<std::size_t>(p)]
               : index_t{-1};
  };
  CondensedDag dag;
  dag.succ_ptr.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  dag.num_deps.assign(static_cast<std::size_t>(num_nodes), 0);
  for (std::size_t s = 0; s < snodes.size(); ++s) {
    const index_t dst = crossing(s);
    if (dst == -1) continue;
    ++dag.succ_ptr[static_cast<std::size_t>(node_of[s]) + 1];
    ++dag.num_deps[static_cast<std::size_t>(dst)];
  }
  for (std::size_t g = 0; g < static_cast<std::size_t>(num_nodes); ++g) {
    dag.succ_ptr[g + 1] += dag.succ_ptr[g];
  }
  dag.succ.resize(static_cast<std::size_t>(dag.succ_ptr.back()));
  std::vector<index_t> cursor(dag.succ_ptr.begin(), dag.succ_ptr.end() - 1);
  for (std::size_t s = 0; s < snodes.size(); ++s) {
    const index_t dst = crossing(s);
    if (dst == -1) continue;
    dag.succ[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(node_of[s])]++)] = dst;
  }
  return dag;
}

std::vector<index_t> subtree_groups(const SymbolicFactor& sym,
                                    std::span<const double> work) {
  const index_t nsup = sym.num_supernodes();
  const auto snodes = sym.supernodes();
  auto parent = [&](index_t s) {
    return snodes[static_cast<std::size_t>(s)].parent;
  };
  const std::vector<double> subtree = tree_sums(sym, work, TreeSum::Subtree);
  double total = 0.0;
  for (index_t s = 0; s < nsup; ++s) {
    if (parent(s) == -1) total += subtree[static_cast<std::size_t>(s)];
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
  stats.height = std::max<index_t>(sym.num_levels() - 1, 0);
  const auto snodes = sym.supernodes();
  std::vector<double> flops(snodes.size());
  // Descending supernode order fixes the total's summation order.
  for (index_t s = stats.num_supernodes - 1; s >= 0; --s) {
    const SupernodeInfo& sn = snodes[static_cast<std::size_t>(s)];
    const double f = static_cast<double>(potrf_ops(sn.width())) +
                     static_cast<double>(trsm_ops(sn.num_update_rows(),
                                                  sn.width())) +
                     static_cast<double>(syrk_ops(sn.num_update_rows(),
                                                  sn.width()));
    flops[static_cast<std::size_t>(s)] = f;
    stats.total_flops += f;
    stats.max_front_order = std::max(stats.max_front_order, sn.front_order());
    if (sym.children(s).empty()) ++stats.num_leaves;
  }
  for (const double path : tree_sums(sym, flops, TreeSum::RootPath)) {
    stats.critical_path_flops = std::max(stats.critical_path_flops, path);
  }
  return stats;
}

}  // namespace mfgpu
