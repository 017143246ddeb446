// Elimination tree of a symmetric matrix (Liu's algorithm with path
// compression). parent[j] is the first off-diagonal row of column j of the
// Cholesky factor L; the tree drives all multifrontal data flow.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"

namespace mfgpu {

/// Returns parent[j] for each column (-1 for roots).
std::vector<index_t> elimination_tree(const SparseSpd& a);

/// The elimination tree of P A P^T (new_of_old as in SparseSpd::permuted),
/// in new indices, from the pattern of `a` alone: nothing is permuted.
std::vector<index_t> elimination_tree(const SparseSpd& a,
                                      std::span<const index_t> new_of_old);

}  // namespace mfgpu
