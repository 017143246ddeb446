// High-level solver facade: the one-stop API tying the whole system
// together (ordering -> symbolic analysis -> hybrid numeric factorization
// -> solve + refinement), in the spirit of the WSMP interface the paper
// builds on.
//
// The pipeline is phase-split (analyze / factor / refactor / solve), so the
// symbolic analysis — by far the most expensive reusable artifact — is a
// first-class handle that can be factored many times:
//
//   SolverOptions options;
//   options.mode = SolverMode::ModelHybrid;     // auto-tuned policy dispatch
//   options.num_threads = 4;                    // task-parallel numeric phase
//   Solver solver = Solver::analyze(matrix, options);  // symbolic only
//   solver.factor();                            // numeric factorization
//   std::vector<double> x = solver.solve(b);    // refined solve
//   ...
//   solver.refactor(matrix2);                   // same pattern, new values
//   std::vector<double> y = solver.solve(b2);
//
// The classic one-shot constructor Solver(a, options) remains as a thin
// wrapper equivalent to analyze(a, options) followed by factor().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "autotune/trainer.hpp"
#include "multifrontal/factorization.hpp"
#include "multifrontal/refine.hpp"
#include "obs/profile.hpp"
#include "obs/whatif.hpp"
#include "policy/executors.hpp"
#include "sched/worker.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

enum class OrderingChoice {
  Natural,          ///< no reordering (debugging only; heavy fill)
  MinimumDegree,    ///< quotient-graph MD — the general-purpose default
  NestedDissection  ///< geometric ND — needs coordinates, best for meshes
};

enum class SolverMode {
  Serial,          ///< policy P1 everywhere; double precision, no GPU
  BaselineHybrid,  ///< op-count thresholds over P1..P4 (paper P_BH)
  ModelHybrid,     ///< classifier trained on this matrix's calls (P_MH)
  IdealHybrid      ///< retrospective per-call argmin (P_IH; analysis tool)
};

struct SolverOptions {
  OrderingChoice ordering = OrderingChoice::MinimumDegree;
  /// Required (and used) only for OrderingChoice::NestedDissection.
  /// Copied during analyze(); the span need not outlive the call.
  std::span<const std::array<index_t, 3>> coordinates = {};
  SolverMode mode = SolverMode::BaselineHybrid;
  ExecutorOptions executor;
  AnalyzeOptions analysis;
  Device::Options device;
  /// Aggregated small-front execution (multifrontal/batched.hpp): groups
  /// independent same-level small fronts into one simulated kernel dispatch
  /// per step. The factor is bitwise identical with batching on or off
  /// (the default).
  bool batching = false;
  int max_refinement_steps = 5;
  double refinement_tolerance = 1e-14;

  /// The numeric phase's topology is a worker list: `workers` when set,
  /// else num_threads CPU workers when num_threads > 1, else one worker
  /// with a GPU (none under SolverMode::Serial). Every topology runs the
  /// one planned driver (multifrontal/parallel.hpp): one worker walks the
  /// tree on the calling thread, more run on the work-stealing pool. The
  /// simulated cluster engine is the library driver factorize_cluster
  /// (cluster/cluster.hpp), not a Solver mode.
  ///
  /// Numeric-phase thread count (> 1 executes the assembly tree on that
  /// many CPU workers of the pool).
  int num_threads = 1;
  /// Explicit worker list — e.g. {{.has_gpu=true}, {.has_gpu=true}} for
  /// the paper's 2-GPU runs. Overrides num_threads when non-empty; CPU
  /// workers run P1, GPU workers the mode's policy dispatch, each on a
  /// private simulated device.
  std::vector<WorkerSpec> workers;
  /// Must stay true: every driver extend-adds children in one fixed order,
  /// so the factor is bitwise identical to the serial factorization at any
  /// thread count. analyze() throws InvalidArgumentError on false.
  bool deterministic_reduction = true;
  /// Thread count for the triangular solves and refinement
  /// (multifrontal/parallel_solve.hpp): every solve()/solve_with_history()
  /// call runs its two sweeps as DAGs of subtree-group tasks, and its
  /// per-column refinement residuals as independent column tasks, on this
  /// many workers of the Solver's pool. Solutions are bitwise identical at
  /// every thread count (one task forms each forward front block, in a
  /// fixed order), so this is purely a throughput knob; 1 (the default)
  /// executes entirely on the caller.
  ///
  /// The Solver owns one work-stealing pool, built by analyze() with
  /// max(numeric worker count, solve_threads) threads; factor(),
  /// refactor() and every solve run on it.
  int solve_threads = 1;
  /// Record the numeric phase's schedule flight record
  /// (obs/schedule_record.hpp): every task, dependency join, and primitive
  /// virtual-timing operation, replayable bitwise by obs/whatif.hpp. Costs
  /// a few dozen bytes per event; off by default.
  bool record_schedule = false;
};

/// The values-independent half of an Analysis: the composed fill ordering
/// and the symbolic factorization of one sparsity pattern. Immutable and
/// shareable — every matrix with the same pattern fingerprint can adopt it
/// through Solver::analyze(a, shared, options) instead of repeating the
/// ordering + symbolic work. This is what the serving layer's
/// AnalysisCache stores.
struct PatternAnalysis {
  PatternAnalysis(std::uint64_t fingerprint_in, Permutation perm_in,
                  SymbolicFactor symbolic_in, AnalyzeOptions analysis_in,
                  std::shared_ptr<const std::vector<index_t>> value_source_in);

  std::uint64_t fingerprint;  ///< SparseSpd::pattern_fingerprint() of the pattern
  Permutation perm;
  SymbolicFactor symbolic;
  /// Analysis::value_source: permutes a refactor's values without a sort.
  /// Shared with the exporting Solver and every adopter, never copied.
  std::shared_ptr<const std::vector<index_t>> value_source;
  /// Options the symbolic analysis was built with (adopters must match).
  AnalyzeOptions analysis_options;
  /// Approximate heap footprint — the unit of AnalysisCache byte budgets.
  std::size_t approx_bytes = 0;
};

/// Owns the full pipeline state for one matrix; reuse the factorization
/// across many solves. Thread-compatible: the non-const phases (factor,
/// refactor) must not overlap any other call, while any number of threads
/// may call the const solve paths at once. Those take turns on an internal
/// mutex, because they share the Solver's one pool, which runs one task DAG
/// at a time; a solve that waits for another is not an error.
class Solver {
 public:
  /// One-shot: analyze(a, options) + factor(). Throws
  /// NotPositiveDefiniteError if the matrix is not SPD.
  Solver(const SparseSpd& a, const SolverOptions& options = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  /// Phase 1: ordering + symbolic analysis only (no numeric work). The
  /// matrix values and coordinates are copied; `a` need not outlive the
  /// returned Solver. Throws InvalidArgumentError on an empty matrix
  /// (n = 0) or when options.deterministic_reduction is false.
  static Solver analyze(const SparseSpd& a, const SolverOptions& options = {});
  /// Phase 1, skipping the expensive part: adopt a previously computed
  /// PatternAnalysis for a matrix with the SAME sparsity pattern (new
  /// values welcome). Costs one structure copy plus the value permutation —
  /// no ordering, elimination tree, or symbolic factorization is rerun.
  /// Throws InvalidArgumentError on an empty matrix, when `a`'s pattern
  /// fingerprint differs from `shared->fingerprint`, or when
  /// options.deterministic_reduction is false.
  static Solver analyze(const SparseSpd& a,
                        std::shared_ptr<const PatternAnalysis> shared,
                        const SolverOptions& options = {});
  /// Export this solver's ordering + symbolic analysis as a shareable
  /// artifact (copied out once; the solver keeps its own state).
  std::shared_ptr<const PatternAnalysis> share_analysis() const;
  /// Pattern fingerprint of the analyzed matrix.
  std::uint64_t pattern_fingerprint() const noexcept;
  /// Phase 2: numeric factorization of the analyzed matrix. May be called
  /// again to refactor the same values.
  void factor();
  /// Refactor with new values on the SAME sparsity pattern (the symbolic
  /// analysis is reused — the cheap path for time-stepping / Newton loops):
  /// the values are permuted through the analysis's value map, the numeric
  /// phase's plan is the one built by the first factor(), and the new
  /// factor overwrites the old one's storage in place.
  /// Throws InvalidArgumentError if the pattern differs.
  void refactor(const SparseSpd& a);
  /// True once factor()/refactor() (or the one-shot constructor) completed.
  bool factored() const noexcept;

  /// Solve A x = b with iterative refinement. Throws InvalidArgumentError
  /// if b's size differs from the matrix dimension, InvalidStateError if
  /// the solver has not been factored.
  std::vector<double> solve(std::span<const double> b) const;
  /// Solve for several right-hand sides (columns of B, column-major).
  Matrix<double> solve(const Matrix<double>& b) const;
  /// Residual-history variant.
  RefineResult solve_with_history(std::span<const double> b) const;

  const Analysis& analysis() const noexcept;
  const FactorizationTrace& trace() const noexcept;
  /// Simulated seconds the factorization took under the chosen mode (the
  /// virtual makespan over all workers for parallel runs).
  double factor_time() const noexcept;
  /// Real seconds the last factor()/refactor() took on this machine.
  double factor_wall_seconds() const noexcept;
  /// Simulated host seconds of one blocked forward+backward solve of
  /// `num_rhs` right-hand sides at this solver's solve_threads
  /// (memory-bound estimate; refinement multiplies this by 1 + #steps).
  /// One thread prices the blocked pass, estimated_solve_seconds(sym,
  /// num_rhs); more price the grouped parallel sweeps over the cached
  /// solve schedule (multifrontal/parallel_solve.hpp).
  double solve_time_estimate(index_t num_rhs = 1) const;
  /// The trained policy model (ModelHybrid mode only).
  const TrainedPolicyModel* model() const noexcept;

  /// Aggregated profile of the last factor()/refactor() (phase breakdown,
  /// worker utilization, (m, k) bins, policy and fault audits vs P_IH).
  /// Everything but the phase breakdown comes from this solver's own trace
  /// of that run, so it is exact with or without obs recording and is not
  /// affected by other solvers. The phase breakdown is read from the
  /// recorded spans: it needs obs recording active (ObsScope /
  /// MFGPU_TRACE), covers every span in the scope, and must be taken
  /// before the enclosing scope finishes. Throws InvalidStateError if the
  /// solver has not been factored.
  obs::ProfileReport profile_report() const;

  /// True when a schedule flight record of the last factor()/refactor() is
  /// available (SolverOptions::record_schedule was on and the numeric phase
  /// ran).
  bool schedule_recorded() const noexcept;
  /// The schedule flight record of the last factor()/refactor(). Requires
  /// SolverOptions::record_schedule; throws InvalidStateError when the
  /// solver has not been factored or recording was off.
  const obs::ScheduleRecord& schedule() const;
  /// Critical-path causal analysis of the recorded schedule (per-class
  /// makespan attribution, task spine, CPM slack). Emits sched.cp.* gauges
  /// when obs recording is active. Same preconditions as schedule().
  obs::CriticalPathReport schedule_report() const;
  /// Rate counterfactual of the recorded schedule by exact replay (no
  /// numeric rerun). Emits whatif.* metrics when obs recording is active.
  obs::WhatIfResult schedule_whatif(const obs::WhatIfKnobs& knobs) const;

 private:
  Solver();  ///< used by analyze()

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mfgpu
