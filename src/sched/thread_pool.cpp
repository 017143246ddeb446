#include "sched/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_session.hpp"

namespace mfgpu {
namespace {

/// One worker's task queue. A mutex per deque keeps the implementation
/// obviously correct (and ThreadSanitizer-clean); contention is negligible
/// because owners touch only their own deque and steals are rare by design
/// (proportional seeding keeps subtrees worker-local).
struct WorkerDeque {
  std::mutex mu;
  std::deque<index_t> q;

  void push_bottom(index_t t) {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(t);
  }
  bool pop_bottom(index_t* t) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    *t = q.back();
    q.pop_back();
    return true;
  }
  bool steal_top(index_t* t) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    *t = q.front();
    q.pop_front();
    return true;
  }
};

/// State of one run_dag invocation, shared by all participating workers.
struct Job {
  const GraphDag* dag = nullptr;
  const std::function<void(index_t, int)>* body = nullptr;
  std::vector<WorkerDeque> deques;
  /// Predecessors still outstanding per task; the worker that drops a
  /// counter to zero pushes the successor onto its own deque. acq_rel
  /// ordering makes every predecessor's writes visible to its successor's
  /// executor.
  std::vector<std::atomic<index_t>> pending;
  std::atomic<index_t> remaining{0};
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr error;
  PoolRunStats stats;  ///< per-worker slots; each worker writes only its own

  bool done() const noexcept {
    return abort.load(std::memory_order_acquire) ||
           remaining.load(std::memory_order_acquire) == 0;
  }

  void record_error() {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    abort.store(true, std::memory_order_release);
  }
};

void work(Job& job, int w, int num_workers) {
  if (obs::enabled() && w > 0) {
    // Helper threads exist only to be pool workers; naming their trace lane
    // puts every sched.worker span of worker w in its own labelled tid row.
    // Worker 0 is the calling thread and keeps its own lane name.
    obs::TraceSession::global().set_current_thread_name(
        "pool worker " + std::to_string(w));
  }
  obs::ScopedSpan span("sched", "worker");
  span.set_arg(0, "worker", w);
  int starved = 0;
  index_t executed = 0;
  std::int64_t steals = 0;
  std::int64_t failed_steals = 0;
  double busy = 0.0;
  const auto enter = std::chrono::steady_clock::now();
  while (!job.done()) {
    index_t t = -1;
    bool got = job.deques[static_cast<std::size_t>(w)].pop_bottom(&t);
    for (int i = 1; !got && i < num_workers; ++i) {
      got = job.deques[static_cast<std::size_t>((w + i) % num_workers)]
                .steal_top(&t);
      if (got) ++steals; else ++failed_steals;
    }
    if (!got) {
      // Starved: everything runnable is executing elsewhere. Yield briefly,
      // then back off to a short sleep (e.g. while the root front runs).
      if (++starved < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      continue;
    }
    starved = 0;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (*job.body)(t, w);
    } catch (...) {
      job.record_error();
      break;
    }
    busy += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    ++executed;
    const index_t begin = job.dag->succ_ptr[static_cast<std::size_t>(t)];
    const index_t end = job.dag->succ_ptr[static_cast<std::size_t>(t) + 1];
    for (index_t e = begin; e < end; ++e) {
      const index_t p = job.dag->succ[static_cast<std::size_t>(e)];
      if (job.pending[static_cast<std::size_t>(p)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        job.deques[static_cast<std::size_t>(w)].push_bottom(p);
      }
    }
    job.remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - enter)
          .count();
  job.stats.executed[static_cast<std::size_t>(w)] = executed;
  job.stats.steals[static_cast<std::size_t>(w)] = steals;
  job.stats.failed_steals[static_cast<std::size_t>(w)] = failed_steals;
  job.stats.busy_seconds[static_cast<std::size_t>(w)] = busy;
  job.stats.wall_seconds[static_cast<std::size_t>(w)] = wall;
  job.stats.idle_seconds[static_cast<std::size_t>(w)] =
      std::max(0.0, wall - busy);
}

}  // namespace

struct ThreadPool::Impl {
  int num_workers = 1;
  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  bool shutdown = false;
  std::uint64_t epoch = 0;
  Job* job = nullptr;
  /// Workers taking part in the current run; helpers at or above it sit
  /// the run out.
  int active = 1;
  int helpers_running = 0;
  std::vector<std::thread> helpers;

  void helper_main(int w) {
    std::uint64_t seen = 0;
    for (;;) {
      Job* current = nullptr;
      int workers = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_start.wait(lock,
                      [&] { return shutdown || (job != nullptr && epoch != seen); });
        if (shutdown) return;
        seen = epoch;
        if (w >= active) continue;
        current = job;
        workers = active;
      }
      work(*current, w, workers);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--helpers_running == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(std::make_unique<Impl>()) {
  MFGPU_CHECK(num_threads >= 1, "ThreadPool: need at least one thread");
  impl_->num_workers = num_threads;
  impl_->helpers.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int w = 1; w < num_threads; ++w) {
    impl_->helpers.emplace_back([this, w] { impl_->helper_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv_start.notify_all();
  for (std::thread& t : impl_->helpers) t.join();
}

int ThreadPool::num_threads() const noexcept { return impl_->num_workers; }

PoolRunStats ThreadPool::run_dag(
    const GraphDag& dag, const std::function<void(index_t, int)>& body,
    int workers) {
  MFGPU_CHECK(workers >= 0 && workers <= impl_->num_workers,
              "ThreadPool: more workers requested than the pool has");
  const int W = workers == 0 ? impl_->num_workers : workers;
  const index_t n = dag.num_tasks();
  MFGPU_CHECK(static_cast<index_t>(dag.succ_ptr.size()) == n + 1,
              "ThreadPool: succ_ptr size mismatch");
  MFGPU_CHECK(dag.preferred_worker.empty() ||
                  static_cast<index_t>(dag.preferred_worker.size()) == n,
              "ThreadPool: preferred_worker size mismatch");
  MFGPU_CHECK(dag.priority.empty() ||
                  static_cast<index_t>(dag.priority.size()) == n,
              "ThreadPool: priority size mismatch");

  Job job;
  job.dag = &dag;
  job.body = &body;
  job.deques = std::vector<WorkerDeque>(static_cast<std::size_t>(W));
  job.pending = std::vector<std::atomic<index_t>>(static_cast<std::size_t>(n));
  job.stats.executed.assign(static_cast<std::size_t>(W), 0);
  job.stats.steals.assign(static_cast<std::size_t>(W), 0);
  job.stats.failed_steals.assign(static_cast<std::size_t>(W), 0);
  job.stats.busy_seconds.assign(static_cast<std::size_t>(W), 0.0);
  job.stats.idle_seconds.assign(static_cast<std::size_t>(W), 0.0);
  job.stats.wall_seconds.assign(static_cast<std::size_t>(W), 0.0);
  if (n == 0) return job.stats;

  // Validate that num_deps matches the indegree implied by succ: a mismatch
  // would deadlock the run (task never readied) or fire it early.
  std::vector<index_t> children(static_cast<std::size_t>(n), 0);
  MFGPU_CHECK(dag.succ_ptr[0] == 0 &&
                  dag.succ_ptr[static_cast<std::size_t>(n)] ==
                      static_cast<index_t>(dag.succ.size()),
              "ThreadPool: succ_ptr does not index succ");
  for (const index_t p : dag.succ) {
    MFGPU_CHECK(p >= 0 && p < n, "ThreadPool: successor out of range");
    ++children[static_cast<std::size_t>(p)];
  }
  for (index_t t = 0; t < n; ++t) {
    MFGPU_CHECK(children[static_cast<std::size_t>(t)] ==
                    dag.num_deps[static_cast<std::size_t>(t)],
                "ThreadPool: num_deps does not match successor indegree");
  }
  for (index_t t = 0; t < n; ++t) {
    job.pending[static_cast<std::size_t>(t)].store(
        children[static_cast<std::size_t>(t)], std::memory_order_relaxed);
  }
  job.remaining.store(n, std::memory_order_relaxed);

  // Seed each worker's deque with its initially-ready tasks in ascending
  // priority order: pop_bottom then serves the highest priority first.
  std::vector<std::vector<index_t>> seeds(static_cast<std::size_t>(W));
  for (index_t t = 0; t < n; ++t) {
    if (children[static_cast<std::size_t>(t)] != 0) continue;
    const int owner =
        dag.preferred_worker.empty()
            ? static_cast<int>(t % W)
            : std::clamp(dag.preferred_worker[static_cast<std::size_t>(t)], 0,
                         W - 1);
    seeds[static_cast<std::size_t>(owner)].push_back(t);
  }
  for (int w = 0; w < W; ++w) {
    auto& mine = seeds[static_cast<std::size_t>(w)];
    if (!dag.priority.empty()) {
      std::stable_sort(mine.begin(), mine.end(), [&](index_t a, index_t b) {
        return dag.priority[static_cast<std::size_t>(a)] <
               dag.priority[static_cast<std::size_t>(b)];
      });
    }
    for (index_t t : mine) {
      job.deques[static_cast<std::size_t>(w)].push_bottom(t);
    }
  }

  if (W > 1) {
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      MFGPU_CHECK(impl_->job == nullptr, "ThreadPool: run_dag is not reentrant");
      impl_->job = &job;
      impl_->active = W;
      impl_->helpers_running = W - 1;
      ++impl_->epoch;
    }
    impl_->cv_start.notify_all();
  }
  work(job, 0, W);
  if (W > 1) {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->cv_done.wait(lock, [&] { return impl_->helpers_running == 0; });
    impl_->job = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    double busy = 0.0;
    double idle = 0.0;
    std::int64_t executed = 0;
    for (int w = 0; w < W; ++w) {
      busy += job.stats.busy_seconds[static_cast<std::size_t>(w)];
      idle += job.stats.idle_seconds[static_cast<std::size_t>(w)];
      executed += job.stats.executed[static_cast<std::size_t>(w)];
    }
    metrics.add("sched.steal_count",
                static_cast<double>(job.stats.total_steals()));
    metrics.add("sched.steal_failed_count",
                static_cast<double>(job.stats.total_failed_steals()));
    metrics.add("sched.worker_busy_seconds", busy);
    metrics.add("sched.worker_idle_seconds", idle);
    metrics.add("sched.pool.tasks_executed", static_cast<double>(executed));
    metrics.gauge_set("sched.pool.workers", static_cast<double>(W));
  }
  return job.stats;
}

}  // namespace mfgpu
