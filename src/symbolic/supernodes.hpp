// Supernode detection and relaxed amalgamation.
//
// A fundamental supernode is a maximal run of consecutive columns with
// identical factor structure below the diagonal block (parent[j] == j+1 and
// count[j+1] == count[j] - 1). Relaxed amalgamation then merges a child
// supernode into its parent when the explicit zeros introduced are small —
// trading a little extra storage for larger, BLAS-3-friendlier fronts
// (the supernodal variant the paper's WSMP substrate uses).
#pragma once

#include <span>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

struct SupernodePartition {
  std::vector<index_t> start;         ///< column range of supernode s: [start[s], start[s+1])
  std::vector<index_t> snode_of_col;  ///< inverse map

  index_t count() const noexcept {
    return static_cast<index_t>(start.size()) - 1;
  }
  index_t width(index_t s) const {
    return start[static_cast<std::size_t>(s) + 1] - start[static_cast<std::size_t>(s)];
  }
};

/// Detect fundamental supernodes from a postordered etree + column counts.
SupernodePartition fundamental_supernodes(std::span<const index_t> parent,
                                          std::span<const index_t> colcount);

/// Relaxed amalgamation (CHOLMOD-style): merge when the merged width stays
/// tiny or the fraction of explicit zeros stays below a width-dependent
/// budget. Off keeps the fundamental supernodes.
struct RelaxOptions {
  bool enabled = true;
};

/// Decide whether a child/parent pair with the given widths, update-row
/// counts and merged update-row count should amalgamate.
bool should_amalgamate(index_t k_child, index_t m_child, index_t k_parent,
                       index_t m_parent, index_t m_merged,
                       const RelaxOptions& options);

/// Dense-front entry count for a supernode of width k with m update rows.
index_t front_factor_nnz(index_t k, index_t m);

}  // namespace mfgpu
