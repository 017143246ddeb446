// Postorder of a forest given as a parent array. A postordered elimination
// tree makes every subtree's columns contiguous, which is what lets the
// multifrontal update-matrix stack behave as a true LIFO stack.
#pragma once

#include <span>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

/// Returns `order` with order[p] = vertex visited p-th in a depth-first
/// postorder (children in increasing-index order).
std::vector<index_t> postorder_forest(std::span<const index_t> parent);

/// True if the forest is already postordered (every parent > its children,
/// subtree vertices contiguous).
bool is_postordered(std::span<const index_t> parent);

}  // namespace mfgpu
