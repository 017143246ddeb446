// SolverService — the request-serving surface over the phase-split Solver
// pipeline. Decouples request admission from numeric execution (the shape
// asynchronous task-based solvers use to reach throughput at scale):
//
//   submit() --> bounded request queue --> N worker sessions
//                 (backpressure)            each owns a Solver
//                                           |
//              AnalysisCache (shared) <-----+--> batched multi-RHS solves
//
// Per request, a session resolves the cheapest viable path:
//   1. same pattern AND same values as its current factorization
//        -> reuse the factor outright (solve only);
//   2. same pattern, new values
//        -> Solver::refactor() (numeric phase only);
//   3. new pattern, AnalysisCache hit
//        -> adopt the shared PatternAnalysis (structure copy, no symbolic
//           recomputation), then factor;
//   4. new pattern, cache miss
//        -> full analyze, shared artifact inserted for everyone else.
//
// Batching: when a session picks up a request it also pulls every queued
// request with the same (pattern, values) fingerprints — up to
// max_batch_rhs — and solves them as one blocked multi-RHS pass. The
// numeric path per right-hand side is IDENTICAL to a direct
// Solver::solve(), so batched answers are bitwise equal to unbatched ones.
//
// Backpressure: the queue is bounded; a full queue blocks the submitter
// until space frees up. Per-request deadlines cancel requests that wait in
// the queue past their budget. shutdown(true) drains queued and in-flight
// work; shutdown(false) cancels what is still queued and finishes only
// in-flight batches.
//
// Fault handling: a batch whose execution throws (e.g. a non-SPD matrix)
// fails only that batch's requests; the session drops its solver and
// rebuilds from a clean state on the next request. Injected device faults
// are answered inside the dispatcher (on-device retry, then a host redo).
//
// Observability. Two layers, from cheapest to richest:
//   - serve.* counters/gauges/histograms per stage (queue depth, cache hit
//     rate, batch widths, request latency);
//   - request-scoped tracing: every admitted request gets an
//     obs::RequestContext (process-unique id, admission span as causal
//     root) that rides with it through sessions, Solver phases,
//     DispatchExecutor decisions and injected faults. Spans recorded while
//     the request is bound are parent-linked, so the Chrome-trace export
//     renders each request's causal tree (queue wait -> analyze/factor ->
//     per-front F-U calls -> solve -> complete).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "serve/analysis_cache.hpp"

namespace mfgpu::serve {

enum class RequestStatus {
  Ok,
  Rejected,          ///< submitted after shutdown
  Cancelled,         ///< still queued when a non-draining shutdown hit
  DeadlineExceeded,  ///< queue wait exceeded the request's deadline
  Failed             ///< execution error (e.g. matrix not SPD)
};
const char* status_name(RequestStatus status) noexcept;

struct RequestOptions {
  /// Max seconds the request may wait in the queue before execution starts
  /// (0, or a value past the steady clock's range such as +inf = no
  /// deadline; NaN or negative is an InvalidArgumentError). Checked when a
  /// session picks the request up.
  double deadline_seconds = 0.0;
};

struct SolveResult {
  RequestStatus status = RequestStatus::Failed;
  std::vector<double> x;  ///< solution (Ok only)
  std::string error;      ///< diagnostic for Failed
  bool analysis_cache_hit = false;  ///< symbolic analysis was reused
  bool factor_reused = false;       ///< numeric factorization was reused
  int batch_size = 1;               ///< rhs coalesced into the solve pass
  /// Simulated seconds charged to this request (its share of the batch's
  /// analyze + factor + blocked-solve cost) — the unit of the service's
  /// deterministic throughput metrics.
  double simulated_seconds = 0.0;
  /// Process-unique request id (nonzero for every submitted request,
  /// including rejected ones) — the key to find this request's spans in a
  /// Chrome-trace export.
  std::uint64_t request_id = 0;

  bool ok() const noexcept { return status == RequestStatus::Ok; }
};

struct ServeOptions {
  /// Worker sessions. Each owns its Solver; requests are multiplexed over
  /// them.
  int num_sessions = 2;
  std::size_t queue_capacity = 64;
  /// Byte budget of the shared pattern-keyed AnalysisCache.
  std::size_t analysis_cache_bytes = 256u << 20;
  /// Max right-hand sides coalesced into one blocked solve pass.
  index_t max_batch_rhs = 8;
  /// Template for each session's Solver (mode, ordering, threads, ...).
  /// solver.solve_threads routes every coalesced batch through the
  /// level-scheduled parallel triangular solve (the batch's simulated
  /// charge prices the parallel sweep accordingly); results stay bitwise
  /// identical to single-threaded serving.
  SolverOptions solver;
  /// Construct with idle sessions; call start() to begin draining. Gives
  /// tests and benchmarks a deterministic queue composition.
  bool start_paused = false;
};

/// Monotonic service counters (exact, independent of obs recording; the
/// same numbers are mirrored as serve.* metrics when obs is enabled).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t batches = 0;        ///< executed solve passes
  std::int64_t analyses = 0;       ///< full symbolic analyses run
  std::int64_t analysis_reuses = 0;  ///< batches served without a full analyze
  std::int64_t factorizations = 0;   ///< numeric factor/refactor runs
  std::int64_t factor_reuses = 0;    ///< batches reusing the current factor
  double sim_analyze_seconds = 0.0;
  double sim_factor_seconds = 0.0;
  double sim_solve_seconds = 0.0;

  /// Fraction of executed batches that avoided a full symbolic analysis
  /// (session-local pattern reuse or an AnalysisCache hit).
  double analysis_hit_rate() const noexcept {
    const std::int64_t total = analyses + analysis_reuses;
    return total > 0
               ? static_cast<double>(analysis_reuses) / static_cast<double>(total)
               : 0.0;
  }
  double simulated_seconds() const noexcept {
    return sim_analyze_seconds + sim_factor_seconds + sim_solve_seconds;
  }
};

class SolverService {
 public:
  explicit SolverService(ServeOptions options);
  /// Drains queued and in-flight work (shutdown(true)).
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Submit one solve request: find x with A x = rhs. The matrix is held
  /// by shared_ptr so many requests can reference one instance without
  /// copies. Throws InvalidArgumentError on a null or empty (n = 0)
  /// matrix, an rhs whose
  /// size differs from the matrix dimension, or a NaN or negative
  /// deadline; every other failure is reported through the returned
  /// future's SolveResult. A full queue blocks the call until space frees
  /// up; after shutdown the future resolves immediately with
  /// RequestStatus::Rejected.
  std::future<SolveResult> submit(std::shared_ptr<const SparseSpd> a,
                                  std::vector<double> rhs,
                                  const RequestOptions& options = {});

  /// Release the sessions of a start_paused service (idempotent).
  void start();

  /// Stop accepting work and wind down the sessions. drain_queued=true
  /// finishes everything already admitted; false cancels queued requests
  /// (futures resolve with Cancelled) and finishes only in-flight batches.
  /// After the sessions join, flushes every active ObsScope
  /// (obs::flush_exports()), so traces and metrics for work served during
  /// shutdown reach their configured files.
  /// Idempotent; safe to call concurrently with submitters.
  void shutdown(bool drain_queued = true);

  ServiceStats stats() const;
  const AnalysisCache::Stats cache_stats() const;
  std::size_t queue_depth() const;
  int num_sessions() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mfgpu::serve
