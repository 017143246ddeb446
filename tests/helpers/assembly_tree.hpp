// Shared test helper: the assembly tree a SymbolicFactor publishes
// (children, heights, num_levels) checked against its parent links by brute
// force, independently of how the factor builds it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "symbolic/symbolic_factor.hpp"

namespace mfgpu::testing_helpers {

/// Height above the leaves by plain recursion over `kids`.
inline index_t brute_height(const std::vector<std::vector<index_t>>& kids,
                            index_t s) {
  index_t h = 0;
  for (index_t c : kids[static_cast<std::size_t>(s)]) {
    h = std::max(h, brute_height(kids, c) + 1);
  }
  return h;
}

/// Every supernode's children are exactly the supernodes naming it as
/// parent, in ascending order, and its height and the level count match a
/// brute-force recursion.
inline void expect_tree_matches_parents(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  std::vector<std::vector<index_t>> kids(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    for (index_t c = 0; c < nsup; ++c) {
      if (sym.supernodes()[static_cast<std::size_t>(c)].parent == s) {
        kids[static_cast<std::size_t>(s)].push_back(c);
      }
    }
  }
  index_t levels = 0;
  for (index_t s = 0; s < nsup; ++s) {
    const std::span<const index_t> listed = sym.children(s);
    EXPECT_EQ(std::vector<index_t>(listed.begin(), listed.end()),
              kids[static_cast<std::size_t>(s)])
        << "children of supernode " << s;
    const index_t h = brute_height(kids, s);
    EXPECT_EQ(sym.height(s), h) << "height of supernode " << s;
    levels = std::max(levels, h + 1);
  }
  EXPECT_EQ(sym.num_levels(), levels);
}

}  // namespace mfgpu::testing_helpers
