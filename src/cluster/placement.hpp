// Subtree-to-node placement for the simulated cluster. The proportional
// mapping (sched/proportional_map.hpp) is the seed — the classic
// subtree-to-subcube assignment that keeps whole subtrees node-local — and
// a deterministic greedy refinement then trades residual load imbalance
// against interconnect cost: moving a uniformly-placed subtree next to its
// parent kills the cross-node message its root would otherwise send.
#pragma once

#include <span>
#include <vector>

#include "sched/interconnect.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

struct PlacementOptions {
  int num_nodes = 1;
  InterconnectModel link;
};

struct PlacementResult {
  /// node_of[supernode] in [0, num_nodes).
  std::vector<int> node_of;
  double seed_cost = 0.0;     ///< objective of the proportional seed
  double refined_cost = 0.0;  ///< objective after refinement (== seed_cost
                              ///< when refinement found nothing)
  int moves = 0;              ///< subtree moves the refinement accepted
};

/// Objective: max per-node compute seconds + total cross-node transfer
/// seconds. Lower is better; supernode work (sched/proportional_map.hpp
/// supernode_work) is converted to seconds at a fixed nominal rate so the
/// two terms share one unit.
double placement_cost(const SymbolicFactor& sym, std::span<const double> work,
                      const std::vector<int>& node_of,
                      const PlacementOptions& options);

/// Proportional seed + greedy subtree refinement. Every supernode is
/// assigned exactly one node; with one node the result is the plain
/// proportional mapping.
PlacementResult place_subtrees(const SymbolicFactor& sym,
                               std::span<const double> work,
                               const PlacementOptions& options);

}  // namespace mfgpu
