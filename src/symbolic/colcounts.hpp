// Column counts of the Cholesky factor L (number of stored entries per
// column, diagonal included), computed without forming L: each row i of A
// induces a "row subtree" of the elimination tree, and column j of L has an
// entry in row i exactly when j lies on that subtree. Gilbert, Ng and
// Peyton count every row subtree at once from its leaves: the entries of A
// that are leaves of some row subtree (its skeleton) and the least common
// ancestors of consecutive leaves, found with a path-compressed
// disjoint-set forest over a postorder of the tree.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"

namespace mfgpu {

/// `parent` is the elimination tree of `a` (any labeling). O(nnz(A) α(n))
/// time, O(n) workspace.
std::vector<index_t> factor_column_counts(const SparseSpd& a,
                                          std::span<const index_t> parent);

}  // namespace mfgpu
