// Work of the assembly tree and its proportional mapping onto workers — the
// classic subtree-to-subcube assignment used by distributed multifrontal
// codes (Gupta/Karypis/Kumar; the parallel WSMP the paper builds on): each
// node of the tree owns a contiguous worker range, and children split their
// parent's range proportionally to subtree work. Subtrees then execute
// entirely on their own workers, so only separator update matrices ever
// cross the interconnect.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// Relative serial cost of factoring each supernode: its factor-update ops
/// plus the memory-bound assembly entries charged to its worker (original
/// entries + extend-add of its children + packing its own update + storing
/// the factor panel). The unit the parallel plan, the cluster placement
/// and their priorities weigh supernodes in.
std::vector<double> supernode_work(const SymbolicFactor& sym,
                                   const SparseSpd& permuted);

/// Critical-path priority of every supernode: its bottom level, the work
/// summed along the path from the supernode up to its root.
std::vector<double> bottom_levels(const SymbolicFactor& sym,
                                  std::span<const double> work);

/// Returns preferred_worker[supernode] in [0, num_workers). Roots own the
/// full range; a supernode whose range narrows to one worker pins its whole
/// subtree there.
std::vector<int> proportional_mapping(const SymbolicFactor& sym,
                                      std::span<const double> work,
                                      int num_workers);

}  // namespace mfgpu
