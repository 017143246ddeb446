// Supernode task DAG for parallel-factorization scheduling. Dependencies
// are exactly the assembly-tree edges: a supernode can factor once all of
// its children have produced their update matrices.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

struct TaskGraph {
  index_t num_tasks = 0;
  std::vector<index_t> parent;                  ///< -1 for roots
  std::vector<std::vector<index_t>> children;
  std::vector<index_t> ms;
  std::vector<index_t> ks;
  /// Memory-bound assembly entries charged to the task's worker (original
  /// entries + extend-add of children + packing its own update + storing
  /// the factor panel).
  std::vector<double> assembly_entries;

  /// Relative serial cost of task t: factor-update ops plus its
  /// memory-bound assembly entries.
  double work(index_t t) const;
};

TaskGraph build_task_graph(const SymbolicFactor& sym, const SparseSpd& permuted);

/// Critical-path priority of every task: its bottom level, the work() summed
/// along the path from the task up to its root.
std::vector<double> bottom_levels(const TaskGraph& graph);

}  // namespace mfgpu
