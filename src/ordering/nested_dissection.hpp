// Geometric nested dissection for grid-generated problems.
//
// Recursively bisects the unknowns along the longest grid axis; the middle
// plane becomes a separator ordered *after* both halves. This is the
// ordering that produces the paper's characteristic elimination trees for
// 3-D structural problems: many small leaf fronts and a few huge separator
// fronts near the root (where policies P3/P4 win).
#pragma once

#include <array>
#include <span>

#include "ordering/permutation.hpp"

namespace mfgpu {

/// `coords[i]` is the grid coordinate of unknown i (unknowns sharing a node,
/// e.g. the 3 dof of an elasticity node, share coordinates and are kept
/// adjacent in the ordering, which helps supernode formation).
Permutation nested_dissection(std::span<const std::array<index_t, 3>> coords);

}  // namespace mfgpu
