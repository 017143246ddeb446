#include "sched/proportional_map.hpp"

#include <algorithm>
#include <cmath>

#include "multifrontal/stack_arena.hpp"
#include "policy/policy.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {

std::vector<double> supernode_work(const SymbolicFactor& sym,
                                   const SparseSpd& permuted) {
  const auto snodes = sym.supernodes();
  const auto col_ptr = permuted.col_ptr();
  // Children precede parents, so work[s] holds its children's extend-add
  // entries when s is reached.
  std::vector<double> work(snodes.size(), 0.0);
  for (std::size_t s = 0; s < snodes.size(); ++s) {
    const SupernodeInfo& sn = snodes[s];
    const index_t m = sn.num_update_rows();
    // Original entries scattered into the front.
    const double a_entries = static_cast<double>(
        col_ptr[static_cast<std::size_t>(sn.last_col)] -
        col_ptr[static_cast<std::size_t>(sn.first_col)]);
    // Pack own update + store the factor panel.
    const double own = static_cast<double>(packed_lower_size(m)) +
                       static_cast<double>(sn.front_order() * sn.width());
    work[s] += a_entries + own;
    // Extend-add of this update into the parent is charged to the parent.
    if (sn.parent != -1) {
      work[static_cast<std::size_t>(sn.parent)] +=
          static_cast<double>(packed_lower_size(m));
    }
    work[s] = fu_total_ops(m, sn.width()) + work[s];
  }
  return work;
}

std::vector<double> bottom_levels(const SymbolicFactor& sym,
                                  std::span<const double> work) {
  return tree_sums(sym, work, TreeSum::RootPath);
}

std::vector<int> proportional_mapping(const SymbolicFactor& sym,
                                      std::span<const double> work,
                                      int num_workers) {
  MFGPU_CHECK(num_workers > 0, "proportional_mapping: need workers");
  const index_t nsup = sym.num_supernodes();
  const std::vector<double> subtree = tree_sums(sym, work, TreeSum::Subtree);

  // Worker ranges [lo, hi) per supernode; roots own everything.
  std::vector<int> lo(static_cast<std::size_t>(nsup), 0);
  std::vector<int> hi(static_cast<std::size_t>(nsup), num_workers);

  // Root-to-leaf sweep (reverse postorder): split each supernode's range
  // among its children proportionally to subtree work, keeping slices
  // contiguous.
  for (index_t t = nsup - 1; t >= 0; --t) {
    const std::span<const index_t> kids = sym.children(t);
    if (kids.empty()) continue;
    const int range_lo = lo[static_cast<std::size_t>(t)];
    const int range_hi = hi[static_cast<std::size_t>(t)];
    const int width = range_hi - range_lo;
    if (width <= 1) {
      // Whole subtree pinned to one worker.
      for (index_t c : kids) {
        lo[static_cast<std::size_t>(c)] = range_lo;
        hi[static_cast<std::size_t>(c)] = range_lo + 1;
      }
      continue;
    }
    double total = 0.0;
    for (index_t c : kids) total += subtree[static_cast<std::size_t>(c)];
    double cursor = static_cast<double>(range_lo);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      const index_t c = kids[i];
      const double share =
          (total > 0.0)
              ? subtree[static_cast<std::size_t>(c)] / total * width
              : static_cast<double>(width) / static_cast<double>(kids.size());
      const int child_lo = std::clamp(
          static_cast<int>(std::floor(cursor)), range_lo, range_hi - 1);
      cursor += share;
      int child_hi = std::clamp(static_cast<int>(std::floor(cursor)),
                                child_lo + 1, range_hi);
      if (i + 1 == kids.size()) child_hi = range_hi;  // absorb rounding
      lo[static_cast<std::size_t>(c)] = child_lo;
      hi[static_cast<std::size_t>(c)] = child_hi;
    }
  }
  return lo;
}

}  // namespace mfgpu
