// Shared pieces of the repository benchmark: command-line arguments, the
// result record printed as the final JSON line, seeded input generation,
// statistics, host facts, and the in-memory span recorder of traced runs.
//
// The benchmark drives the mfgpu library only through its public functions
// and times every call from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dense/matrix.hpp"
#include "serve/service.hpp"
#include "sparse/csc.hpp"
#include "support/rng.hpp"

namespace perfbench {

using mfgpu::index_t;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = not written).
  std::string spans_path;
};

/// What one run prints as its last line: correctness, operation counts and
/// named metrics. `correct` turns false on any wrong answer (the process
/// then exits nonzero); `failed` also counts rejected or late requests.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Count one attempted operation; `ok` false counts it failed.
  void count(bool ok);
  /// Record a wrong answer: counts a failure and clears `correct`.
  void wrong(const std::string& what);
  std::string json() const;
};

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
double percentile(std::vector<double> values, double q);
double sum(const std::vector<double>& values);

/// Max resident set size of this process so far, in MB (10^6 bytes).
double peak_rss_mb();

/// nproc, CPU model, last-level cache, build type and compiler flags, as
/// one line; printed with every result so wall numbers from different
/// machines are never compared silently.
std::string host_facts();

// ---- seeded inputs -------------------------------------------------------

/// Independent, reproducible random stream `stream` of workload seed `seed`.
mfgpu::Rng seeded_rng(std::uint64_t seed, std::uint64_t stream);

/// `a` plus a detached chain of 1-32 unknowns (a seeded length) with the
/// SPD stencil tridiag(-1, 2, -1). The chain leaves the ordering of `a`
/// intact, so a seed moves the factorization's work, and its simulated
/// time, only by the few F-U calls of the chain.
mfgpu::SparseSpd append_seeded_chain(const mfgpu::SparseSpd& a, mfgpu::Rng& rng);

/// D A D with a seeded positive diagonal D: new values on the same
/// pattern, still SPD.
mfgpu::SparseSpd scale_values(const mfgpu::SparseSpd& a, mfgpu::Rng& rng);

std::vector<double> random_vector(index_t n, mfgpu::Rng& rng);
mfgpu::Matrix<double> random_block(index_t n, index_t cols, mfgpu::Rng& rng);

/// ||b - A x|| / ||b||.
double relative_residual(const mfgpu::SparseSpd& a, const double* x,
                         const double* b);
/// ||x - y|| / ||y||.
double relative_error(const std::vector<double>& x, const std::vector<double>& y);
bool bitwise_equal(const double* x, const double* y, std::size_t n);

/// FNV-1a over a vector of doubles (RHS / stream fingerprints).
std::uint64_t fingerprint(const double* data, std::size_t n,
                          std::uint64_t hash = 14695981039346656037ull);
std::string hex(std::uint64_t value);

// ---- workload inputs -----------------------------------------------------

inline constexpr double kResidualTolerance = 1e-10;

/// oneshot_elastic3d: 3-dof 27-point elasticity grid 16x16x16 (n = 12,288)
/// plus the seeded chain.
mfgpu::SparseSpd oneshot_matrix(std::uint64_t seed);
mfgpu::SolverOptions oneshot_options();

/// refactor2d_multirhs: 9-point 2-D operator on 300x300 (n = 90,000) plus
/// the seeded chain.
mfgpu::SparseSpd refactor_base_matrix(std::uint64_t seed);
mfgpu::SolverOptions refactor_options();
inline constexpr index_t kRefactorRhs = 16;

/// serve_mixed_patterns: 8 grid patterns of 2k-10k unknowns, each with 3
/// value variants. Pattern p is the p-th most popular (Zipf); the ranks
/// are chosen so that popularity is uncorrelated with size.
struct ServePattern {
  std::string name;
  std::vector<std::shared_ptr<const mfgpu::SparseSpd>> variants;
};
std::vector<ServePattern> serve_patterns(std::uint64_t seed);
mfgpu::SolverOptions serve_solver_options();
inline constexpr int kServeVariants = 3;

// ---- spans of the traced run ----------------------------------------------

/// In-memory spans (name, start, end, parent) recorded by the benchmark
/// around public layer calls. The layer of a span is its name up to the
/// first '.'.
class SpanRecorder {
 public:
  SpanRecorder();

  /// RAII span on the calling thread's stack of open spans.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double seconds() const;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  /// A finished span with explicit times (e.g. an asynchronous request),
  /// parented to the innermost open scope.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end);

  /// Self time (duration minus the union of its children) summed per layer.
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;
  void write_json(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  double now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- workloads -----------------------------------------------------------

Outcome run_oneshot(const Args& args);
Outcome run_refactor(const Args& args);
Outcome run_serve(const Args& args);

/// The traced run: per-layer metrics of the workload's own matrices, with
/// the traced/untraced agreement check.
Outcome run_traced(const Args& args);

/// The serving workload's closed loop: one generator (the calling thread)
/// keeps kServeInFlight requests in flight on `service` — for `seconds`, or
/// for exactly `requests` requests when that is positive — then checks a
/// seeded sample of answers bitwise against a direct Solver.
struct ServeLoopResult {
  std::vector<double> latency_s;
  /// Latencies of requests that ran a full analysis (cache miss), and of
  /// those that ran only a numeric factorization (refactor or cache adopt).
  std::vector<double> cold_latency_s;
  std::vector<double> refactor_latency_s;
  double elapsed_s = 0.0;
  std::int64_t completed = 0;
  mfgpu::serve::ServiceStats stats;
  mfgpu::serve::AnalysisCache::Stats cache;
  /// Median simulated factor seconds of every (pattern, variant), from the
  /// direct Solver that checks the sampled answers.
  double direct_sim_median_s = 0.0;
};
inline constexpr int kServeInFlight = 4;
/// Requests of the traced run's service loop: four shuffled cycles of the
/// stream, a fixed count so the serve counters depend on the seed rather
/// than on how fast the host is.
inline constexpr std::int64_t kServeTracedRequests = 4 * 66;
mfgpu::serve::ServeOptions serve_options(std::size_t cache_bytes);
ServeLoopResult serve_loop(mfgpu::serve::SolverService& service,
                           const std::vector<ServePattern>& patterns,
                           std::uint64_t seed, double seconds, std::int64_t requests,
                           Outcome& outcome, SpanRecorder* spans);
/// One-time serving setup: AnalysisCache budget (half the patterns'
/// approx_bytes) from one analyze per pattern.
std::size_t serve_cache_budget(const std::vector<ServePattern>& patterns);

}  // namespace perfbench
