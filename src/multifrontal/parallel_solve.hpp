// Level-scheduled supernodal triangular solves on the dense kernels, for
// one right-hand side or a block of them. This is the library's only solve
// path: Solver, refinement and the serving layer all run it.
//
//   * Tree parallelism. Supernodes at the same elimination-tree LEVEL are
//     never ancestor/descendant of one another, so their pivot solves are
//     independent (Ruipeng Li, "On Parallel Solution of Sparse Triangular
//     Linear Systems in CUDA"). build_solve_schedule() extracts the level
//     structure plus the exact dependency runs between supernodes once per
//     symbolic analysis, and cuts the tree once into SUBTREE GROUPS
//     (subtree_groups, symbolic/tree_stats.hpp — the factor's pool uses
//     the same cut): every maximal subtree whose sweep work (factor entries
//     plus update rows of both sweeps, for one right-hand side) is at most
//     kSubtreeGroupShare of the whole is one group, and each supernode
//     above that cut is a group of its own (the "layer 0" of
//     subtree-to-core codes, as in Le Fevre et al.'s A64FX solver). A group is a contiguous postorder range, so a
//     forward task runs its members in ascending order and a backward task
//     in descending order. The cut depends on the pattern alone, never on
//     the thread or RHS count. Only runs between groups become edges of the
//     two grouped sweep DAGs, which the schedule stores; a sweep pass hands
//     them to the work-stealing pool as they are (a caller's pool, or a
//     transient one), and on one thread it walks the groups in order on
//     the caller.
//   * Blocked kernels. Each supernode task is dense level-3 work on the
//     whole block of r right-hand sides: per incoming run of the forward
//     sweep one gemm, L[run rows, :] * X[source pivot rows], whose product
//     is scattered into X, then one trsm on the pivot block; per supernode
//     of the backward sweep a gather of X[update rows] into an m x r block,
//     one gemm with L21^T and one trsm with L11^T. The panel is read once
//     per kernel call, not once per right-hand side.
//
// Determinism, two invariants, both bitwise:
//   * Column independence. Column c of an r-wide solve equals the 1-wide
//     solve of that column, for every r: the dense kernels sum each element
//     in an order fixed by the reduction length and the values alone
//     (dense/kernels.hpp), never by the number of columns.
//   * Thread independence. The forward sweep is a PULL: each supernode
//     applies its incoming runs itself, sources in ascending supernode
//     order, so every x entry sees the same sequence of updates whatever
//     the thread count or schedule. The backward sweep is a gather.
// There is no separate "deterministic mode" to toggle.
//
// The solve does numerics only; it keeps no clock. Its simulated time is
// the deterministic level estimate estimated_solve_seconds(sym, schedule,
// num_rhs, threads) below: the paper runs the triangular solves on the
// host, at the memory-bound host assembly rate, and a clock advanced by
// whichever worker won each task would only restate that estimate less
// repeatably.
#pragma once

#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "multifrontal/factorization.hpp"
#include "symbolic/symbolic_factor.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {

/// One maximal contiguous run of a source supernode's update rows owned by
/// a single target supernode: rows update_rows[t_begin..t_end) of `source`
/// fall inside `target`'s column range. Because update rows are sorted and
/// supernode column ranges are contiguous, each (source, target) pair
/// produces exactly one run.
struct SolveRun {
  index_t source = 0;
  index_t target = 0;
  index_t t_begin = 0;
  index_t t_end = 0;
};

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
  /// All dependency runs, grouped by source (targets ascending within one
  /// source): runs[out_ptr[s] .. out_ptr[s+1]) have source == s.
  std::vector<SolveRun> runs;
  std::vector<index_t> out_ptr;
  /// Incoming runs per target as indices into `runs`, sources ascending:
  /// in_runs[in_ptr[t] .. in_ptr[t+1]) all have target == t. The fixed
  /// source order gives every entry the same update sequence on any number
  /// of threads.
  std::vector<index_t> in_ptr;
  std::vector<index_t> in_runs;
  /// Widest level (supernode count) — the schedule's parallelism ceiling.
  index_t max_level_width = 0;
  /// Most update rows of any supernode: sizes each worker's scratch block.
  index_t max_update_rows = 0;
  /// Subtree groups, the sweeps' unit of work: group g is the postorder
  /// range [group_ptr[g], group_ptr[g+1]), and its last member is an
  /// ancestor of every other member.
  std::vector<index_t> group_ptr;
  /// Sweep work of each group, in the cut's units: the seed priority of
  /// both sweep DAGs (heaviest first).
  std::vector<double> group_work;
  /// Forward edges run from a run's source group to its target group; the
  /// backward DAG is the same edges reversed.
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
