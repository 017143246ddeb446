#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "autotune/hybrid.hpp"
#include "multifrontal/parallel.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "obs/obs.hpp"
#include "obs/schedule_record.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "sched/thread_pool.hpp"

namespace mfgpu {

namespace {

/// Every driver extend-adds children in the fixed serial order;
/// deterministic_reduction is a pinned input whose only valid value is true.
void check_reduction_order(const SolverOptions& options) {
  if (!options.deterministic_reduction) {
    throw InvalidArgumentError(
        "Solver::analyze: deterministic_reduction must be true (children are "
        "always assembled in the fixed serial order)");
  }
}

/// An empty system has nothing to order, factor or solve.
void check_not_empty(const SparseSpd& a) {
  if (a.n() == 0) {
    throw InvalidArgumentError("Solver::analyze: the matrix is empty (n = 0)");
  }
}

}  // namespace

struct Solver::Impl {
  SparseSpd matrix;
  /// Cached SparseSpd::pattern_fingerprint() of `matrix`, computed once at
  /// analyze time (the serving layer's cache key).
  std::uint64_t pattern_fp = 0;
  SolverOptions options;
  /// Owned copy of options.coordinates: the phase-split API lets arbitrary
  /// time pass between analyze() and later calls, so the caller's span must
  /// not be retained.
  std::vector<std::array<index_t, 3>> coordinates;
  std::optional<Analysis> analysis;
  /// Lazily built level schedule for the triangular solves — a pattern
  /// artifact like the symbolic factorization, reused across every solve
  /// and refactor. Built on first use, under solve_mu (solve() is const).
  mutable std::shared_ptr<const SolveSchedule> solve_schedule;
  std::optional<Factorization> factor;
  /// The numeric phase's plan, built by the first factor() and reused by
  /// every refactor (options are fixed at analyze time).
  std::optional<PoolPlan> pool_plan;
  /// The one worker runtime: sized at analyze time to the larger of the
  /// numeric phase's worker count and solve_threads, it runs every factor,
  /// refactor, solve sweep and refinement residual (null when both are 1).
  std::unique_ptr<ThreadPool> pool;
  /// Serializes the const solve paths: the pool runs one DAG at a time, and
  /// the solve schedule is built on first use.
  mutable std::mutex solve_mu;
  FactorizationTrace trace;
  std::optional<TrainedPolicyModel> model;
  PoolRunStats pool_stats;
  /// Per-worker memory high-water marks of the last numeric phase.
  std::vector<WorkerMemory> memory;
  double pool_wall = 0.0;
  double factor_time = 0.0;
  double factor_wall = 0.0;
  bool factored = false;
  /// Flight record of the last numeric phase (options.record_schedule).
  obs::ScheduleRecord schedule;

  Permutation choose_ordering() const;
  /// The numeric phase's topology: `workers`, else num_threads CPU workers
  /// when above 1, else one worker with a GPU unless SolverMode::Serial.
  std::vector<WorkerSpec> numeric_workers() const;
  void make_pool();
  /// Level-scheduled solve configuration (threads, cached schedule, the
  /// pool). Call with solve_mu held.
  ParallelSolveOptions solve_options() const;
  void ensure_model();
  WorkerExecutorFactory worker_factory();
  void run_factor();
};

Permutation Solver::Impl::choose_ordering() const {
  switch (options.ordering) {
    case OrderingChoice::Natural:
      return Permutation::identity(matrix.n());
    case OrderingChoice::MinimumDegree:
      return minimum_degree(build_graph(matrix));
    case OrderingChoice::NestedDissection:
      MFGPU_CHECK(static_cast<index_t>(coordinates.size()) == matrix.n(),
                  "Solver: nested dissection needs one coordinate per unknown");
      return nested_dissection(coordinates);
  }
  throw InvalidArgumentError("Solver: invalid ordering choice");
}

std::vector<WorkerSpec> Solver::Impl::numeric_workers() const {
  if (!options.workers.empty()) return options.workers;
  if (options.num_threads > 1) return cpu_workers(options.num_threads);
  return {{.has_gpu = options.mode != SolverMode::Serial}};
}

void Solver::Impl::make_pool() {
  const int threads = std::max(static_cast<int>(numeric_workers().size()),
                               options.solve_threads);
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
}

void Solver::Impl::ensure_model() {
  if (model.has_value()) return;
  // Train on this matrix's own call distribution (the paper's methodology:
  // learn from the observed timing data).
  obs::ScopedSpan span("solver", "train_policy_model");
  PolicyTimer timer(options.executor);
  const PolicyDataset dataset =
      build_dataset(dims_from_symbolic(analysis->symbolic), timer);
  model = train_expected_time(dataset);
}

/// Per-worker executor construction for every numeric phase. CPU workers
/// always run P1 in double; GPU workers run the mode's dispatcher against
/// their private simulated device.
WorkerExecutorFactory Solver::Impl::worker_factory() {
  const ExecutorOptions executor_options = options.executor;
  switch (options.mode) {
    case SolverMode::Serial:
      return [executor_options](const WorkerSpec&, int) {
        return std::unique_ptr<FuExecutor>(
            std::make_unique<PolicyExecutor>(Policy::P1, executor_options));
      };
    case SolverMode::BaselineHybrid:
      return {};  // factorize_parallel's default is exactly P_BH on GPU, P1 on CPU
    case SolverMode::ModelHybrid:
      ensure_model();  // train once, serially; workers share the const model
      return [this, executor_options](const WorkerSpec& spec,
                                      int) -> std::unique_ptr<FuExecutor> {
        if (!spec.has_gpu) {
          return std::make_unique<PolicyExecutor>(Policy::P1, executor_options);
        }
        return std::make_unique<DispatchExecutor>(
            make_model_hybrid(*model, executor_options));
      };
    case SolverMode::IdealHybrid:
      return [executor_options](const WorkerSpec& spec,
                                int) -> std::unique_ptr<FuExecutor> {
        if (!spec.has_gpu) {
          return std::make_unique<PolicyExecutor>(Policy::P1, executor_options);
        }
        // Each GPU worker gets its own ideal hybrid, and so its own oracle.
        return std::make_unique<DispatchExecutor>(
            make_ideal_hybrid(executor_options));
      };
  }
  throw InvalidArgumentError("Solver: invalid mode");
}

void Solver::Impl::run_factor() {
  const auto wall_t0 = std::chrono::steady_clock::now();
  obs::ScheduleRecorder recorder;
  ParallelFactorizeOptions parallel_options;
  parallel_options.workers = numeric_workers();
  parallel_options.numeric.batching = options.batching;
  parallel_options.numeric.recorder =
      options.record_schedule ? &recorder : nullptr;
  parallel_options.executor = options.executor;
  parallel_options.device = options.device;
  parallel_options.pool = pool.get();
  if (!pool_plan.has_value()) {
    pool_plan = plan_pool(*analysis, parallel_options);
  }
  const WorkerExecutorFactory make_executor = worker_factory();
  // The previous factor's store is recycled in place: it is never alive
  // next to the new one, and a failed factorization leaves none.
  factored = false;
  Factorization recycled = factor.has_value() ? std::move(*factor)
                                              : Factorization{};
  factor.reset();
  FactorizeResult result;
  {
    // Stands at the run's virtual makespan when the span closes: the
    // numeric phase's simulated seconds in the profile.
    SimClock phase_clock;
    obs::ScopedSpan span("solver", "numeric_factorization", &phase_clock);
    result = factorize_parallel(*analysis, *pool_plan, parallel_options,
                                make_executor, std::move(recycled));
    phase_clock.advance(result.trace.total_time);
  }
  if (options.record_schedule) schedule = recorder.take();
  factor = std::move(result.factor);
  trace = std::move(result.trace);
  pool_stats = std::move(result.pool_stats);
  memory = std::move(result.memory);
  pool_wall = result.pool_wall_seconds;
  factor_time = trace.total_time;
  factor_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();
  factored = true;
}

PatternAnalysis::PatternAnalysis(std::uint64_t fingerprint_in,
                                 Permutation perm_in,
                                 SymbolicFactor symbolic_in,
                                 AnalyzeOptions analysis_in,
                                 std::shared_ptr<const std::vector<index_t>>
                                     value_source_in)
    : fingerprint(fingerprint_in),
      perm(std::move(perm_in)),
      symbolic(std::move(symbolic_in)),
      value_source(std::move(value_source_in)),
      analysis_options(analysis_in) {
  MFGPU_CHECK(value_source != nullptr, "PatternAnalysis: null value map");
  std::size_t bytes = sizeof(PatternAnalysis);
  bytes += 2 * static_cast<std::size_t>(perm.n()) * sizeof(index_t);  // perm
  bytes += value_source->size() * sizeof(index_t);
  bytes += 2 * static_cast<std::size_t>(symbolic.n()) * sizeof(index_t);
  bytes += symbolic.tree_bytes();
  for (const SupernodeInfo& sn : symbolic.supernodes()) {
    bytes += sizeof(SupernodeInfo) + sn.update_rows.size() * sizeof(index_t);
  }
  approx_bytes = bytes;
}

Solver::Solver() : impl_(std::make_unique<Impl>()) {}

Solver Solver::analyze(const SparseSpd& a, const SolverOptions& options) {
  check_not_empty(a);
  check_reduction_order(options);
  Solver solver;
  Impl& impl = *solver.impl_;
  impl.matrix = a;
  impl.pattern_fp = a.pattern_fingerprint();
  impl.options = options;
  impl.coordinates.assign(options.coordinates.begin(),
                          options.coordinates.end());
  impl.options.coordinates = {};  // always read the owned copy
  obs::ScopedSpan span("solver", "analyze");
  span.set_arg(0, "n", a.n());
  impl.analysis =
      mfgpu::analyze(impl.matrix, impl.choose_ordering(), options.analysis);
  impl.make_pool();
  return solver;
}

Solver Solver::analyze(const SparseSpd& a,
                       std::shared_ptr<const PatternAnalysis> shared,
                       const SolverOptions& options) {
  MFGPU_CHECK(shared != nullptr, "Solver::analyze: null shared analysis");
  check_not_empty(a);
  check_reduction_order(options);
  const std::uint64_t fingerprint = a.pattern_fingerprint();
  if (fingerprint != shared->fingerprint) {
    throw InvalidArgumentError(
        "Solver::analyze: matrix pattern fingerprint differs from the "
        "shared analysis");
  }
  Solver solver;
  Impl& impl = *solver.impl_;
  impl.matrix = a;
  impl.pattern_fp = fingerprint;
  impl.options = options;
  impl.options.coordinates = {};  // the ordering is already decided
  impl.options.analysis = shared->analysis_options;
  obs::ScopedSpan span("solver", "analyze_shared");
  span.set_arg(0, "n", a.n());
  // Adoption copies the immutable structures, shares the value map, and
  // permutes the new values — no ordering / etree / symbolic recomputation.
  impl.analysis.emplace(
      Analysis{shared->perm, a.permuted(shared->perm.new_of_old()),
               shared->symbolic, shared->value_source});
  impl.make_pool();
  return solver;
}

std::shared_ptr<const PatternAnalysis> Solver::share_analysis() const {
  const Impl& impl = *impl_;
  MFGPU_CHECK(impl.analysis.has_value(),
              "Solver::share_analysis: not analyzed");
  return std::make_shared<const PatternAnalysis>(
      impl.pattern_fp, impl.analysis->perm, impl.analysis->symbolic,
      impl.options.analysis, impl.analysis->value_source);
}

std::uint64_t Solver::pattern_fingerprint() const noexcept {
  return impl_->pattern_fp;
}

Solver::Solver(const SparseSpd& a, const SolverOptions& options)
    : Solver(analyze(a, options)) {
  impl_->run_factor();
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

void Solver::factor() { impl_->run_factor(); }

void Solver::refactor(const SparseSpd& a) {
  Impl& impl = *impl_;
  if (a.n() != impl.matrix.n()) {
    throw InvalidArgumentError("Solver::refactor: dimension mismatch");
  }
  // An exact comparison with the analyzed pattern: memcmp speed, and unlike
  // a hash it accepts no colliding pattern.
  if (!std::ranges::equal(a.col_ptr(), impl.matrix.col_ptr()) ||
      !std::ranges::equal(a.row_idx(), impl.matrix.row_idx())) {
    throw InvalidArgumentError(
        "Solver::refactor: sparsity pattern differs from the analyzed matrix");
  }
  impl.matrix.assign_values(a.values());
  // Same pattern => the composed permutation and symbolic structure are
  // still exact; only the permuted values need recomputing, in place
  // through the value map.
  impl.analysis->permuted.gather_values(impl.matrix.values(),
                                        *impl.analysis->value_source);
  impl.run_factor();
}

bool Solver::factored() const noexcept { return impl_->factored; }

std::vector<double> Solver::solve(std::span<const double> b) const {
  return solve_with_history(b).x;
}

ParallelSolveOptions Solver::Impl::solve_options() const {
  if (solve_schedule == nullptr) {
    solve_schedule = std::make_shared<const SolveSchedule>(
        build_solve_schedule(analysis->symbolic));
  }
  ParallelSolveOptions opts;
  opts.threads = std::max(1, options.solve_threads);
  opts.schedule = solve_schedule.get();
  opts.pool = pool.get();
  return opts;
}

Matrix<double> Solver::solve(const Matrix<double>& b) const {
  if (!impl_->factored) {
    throw InvalidStateError(
        "Solver::solve: factor() has not been called (analyze-only handle)");
  }
  if (b.rows() != impl_->matrix.n()) {
    throw InvalidArgumentError(
        "Solver::solve: rhs has " + std::to_string(b.rows()) +
        " rows, matrix dimension is " + std::to_string(impl_->matrix.n()));
  }
  if (b.cols() == 0) return Matrix<double>(b.rows(), 0);
  // One blocked refined pass over the whole block: each factor panel is
  // streamed once per refinement step instead of once per column, and the
  // level-scheduled sweeps keep every column bitwise identical to a
  // per-column solve(b.col(j)).
  const std::lock_guard<std::mutex> lock(impl_->solve_mu);
  obs::ScopedSpan span("solve", "blocked_solve_with_refinement");
  span.set_arg(0, "rhs", b.cols());
  BlockRefineResult refined = solve_with_refinement(
      impl_->matrix, *impl_->analysis, *impl_->factor, b,
      impl_->options.max_refinement_steps,
      impl_->options.refinement_tolerance, impl_->solve_options());
  return std::move(refined.x);
}

RefineResult Solver::solve_with_history(std::span<const double> b) const {
  if (!impl_->factored) {
    throw InvalidStateError(
        "Solver::solve: factor() has not been called (analyze-only handle)");
  }
  if (static_cast<index_t>(b.size()) != impl_->matrix.n()) {
    throw InvalidArgumentError(
        "Solver::solve: rhs has " + std::to_string(b.size()) +
        " entries, matrix dimension is " + std::to_string(impl_->matrix.n()));
  }
  const std::lock_guard<std::mutex> lock(impl_->solve_mu);
  obs::ScopedSpan span("solve", "solve_with_refinement");
  return solve_with_refinement(impl_->matrix, *impl_->analysis,
                               *impl_->factor, b,
                               impl_->options.max_refinement_steps,
                               impl_->options.refinement_tolerance,
                               impl_->solve_options());
}

const Analysis& Solver::analysis() const noexcept { return *impl_->analysis; }
const FactorizationTrace& Solver::trace() const noexcept {
  return impl_->trace;
}
double Solver::factor_time() const noexcept { return impl_->factor_time; }
double Solver::factor_wall_seconds() const noexcept {
  return impl_->factor_wall;
}

double Solver::solve_time_estimate(index_t num_rhs) const {
  const SymbolicFactor& sym = impl_->analysis->symbolic;
  const int threads = impl_->options.solve_threads;
  if (threads <= 1) return estimated_solve_seconds(sym, num_rhs);
  const std::lock_guard<std::mutex> lock(impl_->solve_mu);
  return estimated_solve_seconds(sym, *impl_->solve_options().schedule,
                                 num_rhs, threads);
}
const TrainedPolicyModel* Solver::model() const noexcept {
  return impl_->model.has_value() ? &*impl_->model : nullptr;
}

obs::ProfileReport Solver::profile_report() const {
  if (!impl_->factored) {
    throw InvalidStateError("Solver::profile_report: not factored");
  }
  obs::ProfileReportInputs inputs;
  inputs.trace = &impl_->trace;
  inputs.supernodes = impl_->analysis->symbolic.supernodes();
  if (impl_->pool_stats.num_workers() > 0) {
    inputs.pool_stats = &impl_->pool_stats;
    inputs.pool_wall_seconds = impl_->pool_wall;
  }
  inputs.executor_options = impl_->options.executor;
  inputs.memory = impl_->memory;
  return obs::build_profile_report(inputs);
}

bool Solver::schedule_recorded() const noexcept {
  return impl_ != nullptr && impl_->factored && !impl_->schedule.empty();
}

const obs::ScheduleRecord& Solver::schedule() const {
  if (!impl_->factored) {
    throw InvalidStateError("Solver::schedule: not factored");
  }
  if (impl_->schedule.empty()) {
    throw InvalidStateError(
        "Solver::schedule: factor() ran without record_schedule");
  }
  return impl_->schedule;
}

obs::CriticalPathReport Solver::schedule_report() const {
  obs::CriticalPathReport report = obs::analyze_critical_path(schedule());
  obs::emit_critical_path_metrics(report);
  return report;
}

obs::WhatIfResult Solver::schedule_whatif(const obs::WhatIfKnobs& knobs) const {
  obs::WhatIfResult result = obs::whatif_replay(schedule(), knobs);
  obs::emit_whatif_metrics(result);
  return result;
}

}  // namespace mfgpu
