// Level-scheduled supernodal triangular solves on the dense kernels, for
// one right-hand side or a block of them. This is the library's only solve
// path: Solver, refinement and the serving layer all run it.
//
//   * Tree parallelism. Supernodes at the same elimination-tree LEVEL are
//     never ancestor/descendant of one another, so their pivot solves are
//     independent (Ruipeng Li, "On Parallel Solution of Sparse Triangular
//     Linear Systems in CUDA"). build_solve_schedule() extracts the level
//     structure once per symbolic analysis and cuts the tree once into
//     SUBTREE GROUPS (subtree_groups, symbolic/tree_stats.hpp — the
//     factor's pool uses the same cut): every maximal subtree whose sweep
//     work (factor entries plus update rows of both sweeps, for one
//     right-hand side) is at most kSubtreeGroupShare of the whole is one
//     group, and each supernode above that cut is a group of its own (the
//     "layer 0" of subtree-to-core codes, as in Le Fevre et al.'s A64FX
//     solver). A group is a contiguous postorder range, so a forward task
//     runs its members in ascending order and a backward task in
//     descending order. The cut depends on the pattern alone, never on the
//     thread or RHS count. The two sweep DAGs are the group forest, forward
//     child to parent and backward reversed; a sweep pass hands them to the
//     work-stealing pool as they are (a caller's pool, or a transient one),
//     and on one thread it walks the groups in order on the caller.
//   * Multifrontal forward sweep. Each supernode s owns a front block, its
//     pivot rows X[s] on top of an m x r update block U. Its task
//     extend-adds its children's update blocks into it (relative indices
//     from the factor's RowMerge, multifrontal/frontal.hpp), solves
//     L11 X[s] = X[s], forms U -= L21 X[s] with one gemm and leaves U for
//     its parent, as the factor passes update matrices up the tree. Inside
//     a group the blocks live on the worker's LIFO stack; only a group
//     top's block crosses tasks, in an area of the pass shared by all
//     workers. The layout is a pattern artifact of the schedule.
//   * Backward sweep. Per supernode a gather of X[update rows] into an
//     m x r block, one gemm with L21^T and one trsm with L11^T. Every
//     kernel works on the whole block of r right-hand sides, so the panel
//     is read once per kernel call, not once per right-hand side.
//
// Determinism, two invariants, both bitwise:
//   * Column independence. Column c of an r-wide solve equals the 1-wide
//     solve of that column, for every r: the dense kernels sum each element
//     in an order fixed by the reduction length and the values alone
//     (dense/kernels.hpp), never by the number of columns, and the
//     extend-add touches each column on its own.
//   * Thread independence. One task forms each front block, from zero, by
//     extend-adding its children in ascending child order, then the trsm
//     and the gemm: every entry of X and of every update block sees the
//     same sequence of operations whatever the thread count, the schedule
//     or the worker that ran a child. The backward sweep is a gather.
// There is no separate "deterministic mode" to toggle.
//
// The solve does numerics only; it keeps no clock. Its simulated time is
// the deterministic level estimate estimated_solve_seconds(sym, schedule,
// num_rhs, threads) below: the paper runs the triangular solves on the
// host, at the memory-bound host assembly rate, and a clock advanced by
// whichever worker won each task would only restate that estimate less
// repeatably.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "multifrontal/factorization.hpp"
#include "symbolic/symbolic_factor.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {

/// One sweep's task DAG over the subtree groups in the pool's CSR form
/// (sched/thread_pool.hpp GraphDag): group g notifies
/// succ[succ_ptr[g] .. succ_ptr[g+1]) when done, and is ready once
/// num_deps[g] notifications arrived. Each cross-group pair is one edge.
struct SweepDag {
  std::vector<index_t> succ_ptr;
  std::vector<index_t> succ;
  std::vector<index_t> num_deps;
};

/// Values-independent schedule for the triangular sweeps, built once per
/// symbolic factorization (it is a pattern artifact, reusable across
/// refactorizations — cache it next to the Analysis).
struct SolveSchedule {
  index_t num_supernodes = 0;
  /// Number of elimination-tree levels (the schedule's critical-path depth:
  /// a solve cannot finish in fewer than num_levels dependent steps however
  /// many threads are available).
  index_t num_levels = 0;
  /// Height of each supernode above the leaves; ancestors are strictly
  /// higher than descendants.
  std::vector<index_t> level_of;
  /// Level-major supernode lists: level l spans
  /// level_nodes[level_ptr[l] .. level_ptr[l+1]).
  std::vector<index_t> level_ptr;
  std::vector<index_t> level_nodes;
  /// Widest level (supernode count) — the schedule's parallelism ceiling.
  index_t max_level_width = 0;
  /// Most update rows of any supernode: sizes the backward gather.
  index_t max_update_rows = 0;
  /// Children of each supernode, ascending:
  /// children[child_ptr[s] .. child_ptr[s+1]).
  std::vector<index_t> child_ptr;
  std::vector<index_t> children;
  /// Forward update blocks: supernode s's m x r block starts
  /// update_offset[s] * r doubles into its worker's stack when its parent
  /// is in its group, else into the pass's shared area of group-top
  /// updates. Stacked blocks of one group are laid out as its walk's LIFO
  /// stack: a supernode's children right above its own block, ascending.
  std::vector<index_t> update_offset;
  /// Most stack rows one group's walk holds, and the rows of every group
  /// top's update: r times these size a pass's forward scratch.
  index_t stack_rows = 0;
  index_t shared_rows = 0;
  /// Subtree groups, the sweeps' unit of work: group g is the postorder
  /// range [group_ptr[g], group_ptr[g+1]), and its last member is an
  /// ancestor of every other member.
  std::vector<index_t> group_ptr;
  /// Sweep work of each group, in the cut's units: the seed priority of
  /// both sweep DAGs (heaviest first).
  std::vector<double> group_work;
  /// The group forest: a forward edge runs from each group to the group of
  /// its top's parent, and the backward DAG is the same edges reversed.
  SweepDag forward;
  SweepDag backward;

  index_t num_groups() const noexcept {
    return group_ptr.empty() ? 0 : static_cast<index_t>(group_ptr.size()) - 1;
  }
};

SolveSchedule build_solve_schedule(const SymbolicFactor& sym);

class ThreadPool;

struct ParallelSolveOptions {
  /// Solve thread count; 1 executes entirely on the caller.
  int threads = 1;
  /// Optional precomputed schedule for analysis.symbolic (must match).
  /// When null, the schedule is built on the fly.
  const SolveSchedule* schedule = nullptr;
  /// Pool to run on when threads > 1, with at least `threads` threads (a
  /// Solver passes its own). When null, each call builds a transient one.
  ThreadPool* pool = nullptr;
};

/// body(j, worker) for every j in [0, count), as independent column tasks
/// on the first options.threads workers of options.pool, or in order on
/// the caller (worker 0) when the solve runs on one thread. Each task must
/// touch only its own column's state and its worker's scratch.
void for_each_column(index_t count, const ParallelSolveOptions& options,
                     const std::function<void(index_t, int)>& body);

/// Blocked multi-RHS solve of A X = B in the ORIGINAL ordering: solves the
/// leading `num_rhs` columns of `b` in one level-scheduled pass of blocked
/// kernel calls. Bitwise identical, column for column, to the 1-wide solve
/// of each column, for every thread count.
Matrix<double> solve(const Analysis& analysis, const Factorization& factor,
                     const Matrix<double>& b, index_t num_rhs,
                     const ParallelSolveOptions& options = {});

/// One-RHS solve of A x = b in the ORIGINAL ordering: the blocked solve at
/// width 1 on the calling thread.
std::vector<double> solve(const Analysis& analysis, const Factorization& factor,
                          std::span<const double> b);

/// Simulated host seconds for a solve of `num_rhs` right-hand sides in one
/// pass on one thread: the sweeps are memory bound — the factor panels are
/// streamed once for the whole block, while the per-rhs gather/scatter
/// traffic scales with the block width. The gap to
/// num_rhs * estimated_solve_seconds(sym) is the serving layer's batching
/// win.
double estimated_solve_seconds(const SymbolicFactor& sym, index_t num_rhs = 1);

/// Deterministic simulated seconds for a blocked `num_rhs` solve on
/// `threads` level-scheduled solve threads: per level, the greedy bound
/// max(longest task, level work / threads), summed over both sweeps. With
/// threads == 1 this equals estimated_solve_seconds(sym, num_rhs) (up to
/// summation-order roundoff). It is the only simulated time of a solve,
/// and what the solve-throughput bench gates on: it does not depend on
/// which worker won each task.
double estimated_solve_seconds(const SymbolicFactor& sym,
                               const SolveSchedule& schedule, index_t num_rhs,
                               int threads);

}  // namespace mfgpu
