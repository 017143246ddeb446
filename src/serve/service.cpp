#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "obs/request_context.hpp"
#include "sched/bounded_queue.hpp"
#include "serve/cost.hpp"

namespace mfgpu::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct Request {
  std::shared_ptr<const SparseSpd> matrix;
  std::vector<double> rhs;
  std::uint64_t pattern_fp = 0;
  std::uint64_t values_fp = 0;
  Clock::time_point enqueued{};
  Clock::time_point deadline{};
  bool has_deadline = false;
  /// Causal identity carried through sessions, Solver phases, executors,
  /// and fault injection (see obs/request_context.hpp).
  obs::RequestContext ctx;
  std::promise<SolveResult> promise;

  bool expired(Clock::time_point now) const noexcept {
    return has_deadline && now > deadline;
  }
};

void fulfill(Request& request, SolveResult result) {
  result.request_id = request.ctx.request_id;
  request.promise.set_value(std::move(result));
}

SolveResult make_status_result(RequestStatus status, std::string error = {}) {
  SolveResult result;
  result.status = status;
  result.error = std::move(error);
  return result;
}

}  // namespace

const char* status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::Cancelled: return "cancelled";
    case RequestStatus::DeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::Failed: return "failed";
  }
  return "unknown";
}

struct SolverService::Impl {
  explicit Impl(ServeOptions options_in)
      : options(std::move(options_in)),
        sessions(options.num_sessions),
        cache(options.analysis_cache_bytes),
        queue(options.queue_capacity) {
    MFGPU_CHECK(options.max_batch_rhs >= 1,
                "SolverService: max_batch_rhs must be >= 1");
    MFGPU_CHECK(sessions >= 1, "SolverService: need at least one session");
    queue.set_paused(options.start_paused);
    threads.reserve(static_cast<std::size_t>(sessions));
    for (int id = 0; id < sessions; ++id) {
      threads.emplace_back([this, id] { run_session(id); });
    }
  }

  /// Per-session solver state: one Solver handle reused as long as the
  /// traffic stays on its pattern.
  struct Session {
    std::unique_ptr<Solver> solver;
    std::uint64_t pattern_fp = 0;
    std::uint64_t values_fp = 0;
  };

  void run_session(int id);
  void process_batch(std::vector<Request>& batch, Session& session);
  void finish_expired(Request& request);
  void cancel(Request& request);

  ServeOptions options;
  const int sessions;
  AnalysisCache cache;
  BoundedQueue<Request> queue;
  std::vector<std::thread> threads;

  mutable std::mutex stats_mutex;
  ServiceStats stats;

  std::mutex shutdown_mutex;
  bool closed = false;
};

void SolverService::Impl::finish_expired(Request& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.deadline_exceeded;
  }
  obs::MetricsRegistry::global().increment("serve.requests.deadline_exceeded");
  const std::int64_t now = obs::TraceSession::global().now_ns();
  obs::record_span("request", "deadline_exceeded", now, now,
                   request.ctx.request_id, request.ctx.root_span);
  fulfill(request, make_status_result(RequestStatus::DeadlineExceeded));
}

void SolverService::Impl::cancel(Request& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.cancelled;
  }
  obs::MetricsRegistry::global().increment("serve.requests.cancelled");
  const std::int64_t now = obs::TraceSession::global().now_ns();
  obs::record_span("request", "cancelled", now, now, request.ctx.request_id,
                   request.ctx.root_span);
  fulfill(request, make_status_result(RequestStatus::Cancelled));
}

void SolverService::Impl::run_session(int id) {
  Session session;
  bool named_lane = false;
  while (std::optional<Request> request = queue.pop()) {
    if (!named_lane && obs::enabled()) {
      obs::TraceSession::global().set_current_thread_name(
          "serve session " + std::to_string(id));
      named_lane = true;
    }
    obs::MetricsRegistry::global().gauge_set(
        "serve.queue.depth", static_cast<double>(queue.size()));
    if (request->expired(Clock::now())) {
      finish_expired(*request);
      continue;
    }
    // Coalesce queued same-(pattern, values) requests into one blocked
    // multi-RHS pass.
    std::vector<Request> batch;
    batch.push_back(std::move(*request));
    if (options.max_batch_rhs > 1) {
      const std::uint64_t pattern_fp = batch.front().pattern_fp;
      const std::uint64_t values_fp = batch.front().values_fp;
      std::vector<Request> extracted = queue.extract_if(
          [&](const Request& r) {
            return r.pattern_fp == pattern_fp && r.values_fp == values_fp;
          },
          static_cast<std::size_t>(options.max_batch_rhs) - 1);
      const Clock::time_point now = Clock::now();
      for (Request& r : extracted) {
        if (r.expired(now)) {
          finish_expired(r);
        } else {
          batch.push_back(std::move(r));
        }
      }
    }
    process_batch(batch, session);
  }
}

void SolverService::Impl::process_batch(std::vector<Request>& batch,
                                        Session& session) {
  Request& head = batch.front();
  const index_t n = head.matrix->n();
  const index_t k = static_cast<index_t>(batch.size());

  // Bind the head request's context to this session thread: every span the
  // batch opens below — Solver phases, pool-worker F-U tasks (re-bound by
  // factorize_parallel), dispatch decisions, injected faults — is stamped
  // with its request id and parent-linked into its causal tree. Batched
  // siblings share the head's execution tree; their own identity lives in
  // their queue_wait/complete markers.
  obs::RequestScope request_scope(&head.ctx);
  obs::TraceSession& trace = obs::TraceSession::global();
  {
    // Queue wait as a real interval per request: admission -> pickup.
    const std::int64_t now = trace.now_ns();
    for (const Request& r : batch) {
      obs::record_span("request", "queue_wait", r.ctx.admitted_ns, now,
                       r.ctx.request_id, r.ctx.root_span);
    }
  }

  bool analysis_reused = false;
  bool factor_reused = false;
  double analyze_sim = 0.0;
  double factor_sim = 0.0;
  double solve_sim = 0.0;
  Matrix<double> solution;
  bool exec_failed = false;
  std::string exec_error;
  {
    obs::ScopedSpan span("serve", "request_batch");
    span.set_arg(0, "n", n);
    span.set_arg(1, "batch_rhs", k);
    span.set_arg(2, "request",
                 static_cast<std::int64_t>(head.ctx.request_id));
    try {
      if (session.solver != nullptr && session.pattern_fp == head.pattern_fp) {
        analysis_reused = true;
        if (session.values_fp == head.values_fp) {
          factor_reused = true;
        } else {
          obs::ScopedSpan refactor_span("serve", "refactor");
          session.solver->refactor(*head.matrix);
          factor_sim = session.solver->factor_time();
        }
      } else {
        std::shared_ptr<const PatternAnalysis> shared =
            cache.lookup(head.pattern_fp);
        if (shared != nullptr) {
          analysis_reused = true;
          obs::ScopedSpan adopt_span("serve", "adopt_cached_analysis");
          session.solver = std::make_unique<Solver>(Solver::analyze(
              *head.matrix, std::move(shared), options.solver));
        } else {
          obs::ScopedSpan analyze_span("serve", "analyze_miss");
          session.solver = std::make_unique<Solver>(
              Solver::analyze(*head.matrix, options.solver));
          cache.insert(session.solver->share_analysis());
          analyze_sim = estimated_analyze_seconds(
              *head.matrix, session.solver->analysis().symbolic);
        }
        {
          obs::ScopedSpan factor_span("serve", "factor");
          session.solver->factor();
        }
        factor_sim = session.solver->factor_time();
        session.pattern_fp = head.pattern_fp;
      }
      session.values_fp = head.values_fp;

      // One blocked pass over all coalesced right-hand sides. The
      // per-column numeric path is the same refined solve a direct
      // Solver::solve runs, so batched results stay bitwise identical to
      // unbatched ones.
      Matrix<double> block(n, k);
      for (index_t j = 0; j < k; ++j) {
        const std::vector<double>& rhs =
            batch[static_cast<std::size_t>(j)].rhs;
        for (index_t i = 0; i < n; ++i) {
          block(i, j) = rhs[static_cast<std::size_t>(i)];
        }
      }
      {
        obs::ScopedSpan solve_span("serve", "batch_solve");
        solve_span.set_arg(0, "batch_rhs", k);
        solution = session.solver->solve(block);
      }
      solve_sim = session.solver->solve_time_estimate(k);
    } catch (const Error& e) {
      // The session's solver may be mid-phase — drop it so the next request
      // rebuilds from a clean state (the shared cache entry, if any, is
      // unaffected: PatternAnalysis is immutable).
      exec_failed = true;
      exec_error = e.what();
      session.solver.reset();
      session.pattern_fp = 0;
      session.values_fp = 0;
    }
  }

  auto& metrics = obs::MetricsRegistry::global();
  if (!exec_failed) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++stats.batches;
      analysis_reused ? ++stats.analysis_reuses : ++stats.analyses;
      factor_reused ? ++stats.factor_reuses : ++stats.factorizations;
      stats.completed += k;
      stats.sim_analyze_seconds += analyze_sim;
      stats.sim_factor_seconds += factor_sim;
      stats.sim_solve_seconds += solve_sim;
    }
    metrics.increment("serve.batches");
    metrics.observe("serve.batch.rhs", static_cast<double>(k));
    metrics.add("serve.requests.completed", static_cast<double>(k));
    metrics.increment(analysis_reused ? "serve.analysis.reused"
                                      : "serve.analysis.full");
    metrics.increment(factor_reused ? "serve.factor.reused"
                                    : "serve.factor.runs");
    metrics.add("serve.sim.analyze_seconds", analyze_sim);
    metrics.add("serve.sim.factor_seconds", factor_sim);
    metrics.add("serve.sim.solve_seconds", solve_sim);

    const double sim_share = (analyze_sim + factor_sim + solve_sim) /
                             static_cast<double>(k);
    const Clock::time_point now = Clock::now();
    const std::int64_t now_ns = trace.now_ns();
    for (const Request& request : batch) {
      obs::record_span("request", "complete", now_ns, now_ns,
                       request.ctx.request_id, request.ctx.root_span);
    }

    for (index_t j = 0; j < k; ++j) {
      Request& request = batch[static_cast<std::size_t>(j)];
      SolveResult result;
      result.status = RequestStatus::Ok;
      result.x.resize(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        result.x[static_cast<std::size_t>(i)] = solution(i, j);
      }
      result.analysis_cache_hit = analysis_reused;
      result.factor_reused = factor_reused;
      result.batch_size = static_cast<int>(k);
      result.simulated_seconds = sim_share;
      metrics.observe(
          "serve.request.latency_seconds",
          std::chrono::duration<double>(now - request.enqueued).count());
      fulfill(request, std::move(result));
    }
    return;
  }

  // Execution failed: every request of the batch fails. Publish the stats
  // and metrics first, so a caller woken by its future sees them.
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.failed += k;
  }
  metrics.add("serve.requests.failed", static_cast<double>(k));
  for (Request& request : batch) {
    fulfill(request, make_status_result(RequestStatus::Failed, exec_error));
  }
}

SolverService::SolverService(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SolverService::~SolverService() { shutdown(true); }

std::future<SolveResult> SolverService::submit(
    std::shared_ptr<const SparseSpd> a, std::vector<double> rhs,
    const RequestOptions& options) {
  if (a == nullptr) {
    throw InvalidArgumentError("SolverService::submit: null matrix");
  }
  if (a->n() == 0) {
    throw InvalidArgumentError("SolverService::submit: the matrix is empty (n = 0)");
  }
  if (static_cast<index_t>(rhs.size()) != a->n()) {
    throw InvalidArgumentError(
        "SolverService::submit: rhs has " + std::to_string(rhs.size()) +
        " entries, matrix dimension is " + std::to_string(a->n()));
  }
  if (std::isnan(options.deadline_seconds) || options.deadline_seconds < 0.0) {
    throw InvalidArgumentError(
        "SolverService::submit: deadline_seconds must be >= 0, got " +
        std::to_string(options.deadline_seconds));
  }
  auto& metrics = obs::MetricsRegistry::global();
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.submitted;
  }
  metrics.increment("serve.requests.submitted");

  Request request;
  request.matrix = std::move(a);
  request.pattern_fp = request.matrix->pattern_fingerprint();
  request.values_fp = request.matrix->values_fingerprint();
  request.rhs = std::move(rhs);
  request.enqueued = Clock::now();
  // Compared in double nanoseconds: any budget below the clock's remaining
  // range converts back to Clock::duration without overflow. A budget at or
  // past that range (including +inf) can never expire: no deadline.
  const std::chrono::duration<double, std::nano> budget =
      std::chrono::duration<double>(options.deadline_seconds);
  const std::chrono::duration<double, std::nano> headroom =
      Clock::time_point::max() - request.enqueued;
  if (budget.count() > 0.0 && budget < headroom) {
    request.has_deadline = true;
    request.deadline =
        request.enqueued + std::chrono::duration_cast<Clock::duration>(budget);
  }

  // Mint the request's causal identity at admission. The id is allocated
  // unconditionally (it also keys SolveResult::request_id); the admission
  // span only lands in the trace while recording is on.
  obs::TraceSession& trace = obs::TraceSession::global();
  request.ctx.request_id = obs::next_request_id();
  request.ctx.admitted_ns = trace.now_ns();
  request.ctx.root_span =
      obs::record_span("request", "admit", request.ctx.admitted_ns,
                       request.ctx.admitted_ns, request.ctx.request_id);

  std::future<SolveResult> future = request.promise.get_future();

  if (!impl_->queue.push(request)) {
    // The push blocks while the queue is full and fails only once it is
    // closed: the request was never admitted.
    {
      std::lock_guard<std::mutex> lock(impl_->stats_mutex);
      ++impl_->stats.rejected;
    }
    metrics.increment("serve.requests.rejected");
    const std::int64_t now = trace.now_ns();
    obs::record_span("request", "rejected", now, now, request.ctx.request_id,
                     request.ctx.root_span);
    fulfill(request, make_status_result(RequestStatus::Rejected));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.admitted;
  }
  metrics.increment("serve.requests.admitted");
  const double depth = static_cast<double>(impl_->queue.size());
  metrics.gauge_set("serve.queue.depth", depth);
  metrics.observe("serve.queue.depth_samples", depth);
  return future;
}

void SolverService::start() { impl_->queue.set_paused(false); }

void SolverService::shutdown(bool drain_queued) {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
  if (!impl_->closed) {
    impl_->closed = true;
    if (!drain_queued) {
      // Close first so sessions stop pulling new work the moment their
      // current batch finishes, then cancel whatever is still queued.
      impl_->queue.close();
      std::vector<Request> dropped = impl_->queue.drain_now();
      for (Request& request : dropped) impl_->cancel(request);
    } else {
      impl_->queue.close();  // queued work remains poppable: full drain
    }
    for (std::thread& thread : impl_->threads) thread.join();
    impl_->threads.clear();
    // Exporter flush: traces/metrics for work served during shutdown reach
    // the configured MFGPU_TRACE/MFGPU_METRICS files even when this service
    // outlives the scope that would export them, or the process exits
    // without unwinding.
    obs::flush_exports();
  }
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

const AnalysisCache::Stats SolverService::cache_stats() const {
  return impl_->cache.stats();
}

std::size_t SolverService::queue_depth() const { return impl_->queue.size(); }

int SolverService::num_sessions() const noexcept { return impl_->sessions; }

}  // namespace mfgpu::serve
