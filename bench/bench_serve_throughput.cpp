// Serving-layer throughput: a warm SolverService (pattern-keyed analysis
// cache + refactor path + multi-RHS batching) against naive per-request
// Solver construction, on the refactor-heavy workload the service exists
// for: one sparsity pattern, several value sets, several right-hand sides
// per value set.
//
// All gated metrics are SIMULATED quantities (the serve cost model prices
// analyze/factor/solve deterministically), so the numbers are identical on
// every machine and CI can gate them tightly. Wall clocks are Info.
//
// The acceptance bar from the serving-layer design: the warm service must
// reach >= 3x the naive simulated throughput with bitwise-identical
// solutions; this binary exits nonzero if either fails.
//
// A third pass re-runs the service workload with request tracing ON,
// writing bench_out/serve_trace.json (the Chrome trace CI uploads). Its
// wall clock versus the untraced pass is the tracing-overhead guard: every
// gated metric comes from the untraced pass (tracing off = exactly the
// baseline numbers), and the overhead ratio ships as an Info metric.
#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <vector>

#include "core/solver.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "obs/obs.hpp"
#include "serve/cost.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

using namespace mfgpu;

namespace {

std::shared_ptr<const SparseSpd> scaled_copy(const SparseSpd& a,
                                             double factor) {
  std::vector<double> values(a.values().begin(), a.values().end());
  for (double& v : values) v *= factor;
  return std::make_shared<SparseSpd>(
      a.n(), std::vector<index_t>(a.col_ptr().begin(), a.col_ptr().end()),
      std::vector<index_t>(a.row_idx().begin(), a.row_idx().end()),
      std::move(values));
}

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const auto dim = [&](index_t full) {
    return std::max<index_t>(4, static_cast<index_t>(full * scale));
  };
  const GridProblem p = make_laplacian_3d(dim(24), dim(24), dim(20));

  constexpr int kValueSets = 4;
  constexpr int kRhsPerSet = 4;  // 16 requests: the refactor-heavy workload
  constexpr int kRequests = kValueSets * kRhsPerSet;
  std::vector<std::shared_ptr<const SparseSpd>> matrices;
  for (int v = 0; v < kValueSets; ++v) {
    matrices.push_back(scaled_copy(p.matrix, 1.0 + 0.25 * v));
  }

  // Naive baseline: a fresh Solver per request pays analyze + factor +
  // single-rhs solve every time.
  const auto naive_t0 = std::chrono::steady_clock::now();
  double naive_sim = 0.0;
  std::vector<std::vector<double>> expected;
  for (int v = 0; v < kValueSets; ++v) {
    for (int r = 0; r < kRhsPerSet; ++r) {
      Solver solver(*matrices[static_cast<std::size_t>(v)]);
      expected.push_back(solver.solve(
          random_rhs(p.matrix.n(), 1000 + v * kRhsPerSet + r)));
      naive_sim += serve::estimated_analyze_seconds(
                       *matrices[static_cast<std::size_t>(v)],
                       solver.analysis().symbolic) +
                   solver.factor_time() +
                   estimated_solve_seconds(solver.analysis().symbolic, 1);
    }
  }
  const double naive_wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - naive_t0)
                                .count();

  // Warm service: one session and a paused start give a deterministic
  // queue composition (batches form in submit order), so the simulated
  // charges — and every gated metric below — are machine-independent.
  serve::ServeOptions options;
  options.num_sessions = 1;
  options.start_paused = true;
  options.max_batch_rhs = kRhsPerSet;
  options.queue_capacity = kRequests;
  serve::SolverService service(options);

  const auto serve_t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::SolveResult>> futures;
  for (int v = 0; v < kValueSets; ++v) {
    for (int r = 0; r < kRhsPerSet; ++r) {
      futures.push_back(service.submit(
          matrices[static_cast<std::size_t>(v)],
          random_rhs(p.matrix.n(), 1000 + v * kRhsPerSet + r)));
    }
  }
  service.start();

  bool bitwise_identical = true;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::SolveResult result = futures[i].get();
    if (!result.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i,
                   result.error.c_str());
      return 1;
    }
    bitwise_identical = bitwise_identical && result.x == expected[i];
  }
  service.shutdown(true);
  const double serve_wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - serve_t0)
                                .count();

  // Traced re-run: identical workload, with span recording and the Chrome
  // trace export active. Solutions must stay bitwise identical; the
  // wall-clock delta is the cost of observability.
  double traced_sim = 0.0;
  double traced_wall = 0.0;
  bool traced_identical = true;
  {
    std::filesystem::create_directories("bench_out");
    obs::ObsScope obs_scope(obs::make_config("bench_out/serve_trace.json", ""));
    serve::SolverService traced_service(options);
    const auto traced_t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::SolveResult>> traced_futures;
    for (int v = 0; v < kValueSets; ++v) {
      for (int r = 0; r < kRhsPerSet; ++r) {
        traced_futures.push_back(traced_service.submit(
            matrices[static_cast<std::size_t>(v)],
            random_rhs(p.matrix.n(), 1000 + v * kRhsPerSet + r)));
      }
    }
    traced_service.start();
    for (std::size_t i = 0; i < traced_futures.size(); ++i) {
      const serve::SolveResult result = traced_futures[i].get();
      if (!result.ok()) {
        std::fprintf(stderr, "traced request %zu failed: %s\n", i,
                     result.error.c_str());
        return 1;
      }
      traced_identical = traced_identical && result.x == expected[i];
    }
    traced_service.shutdown(true);  // export flush
    traced_wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - traced_t0)
                      .count();
    traced_sim = traced_service.stats().simulated_seconds();
  }

  const serve::ServiceStats stats = service.stats();
  const double service_sim = stats.simulated_seconds();
  const double speedup = naive_sim / service_sim;
  const double naive_rps = kRequests / naive_sim;
  const double service_rps = kRequests / service_sim;
  // Batching win on the solve phase alone: k independent sweeps vs one
  // blocked pass of width k (the factor panels are streamed once).
  Solver probe = Solver::analyze(p.matrix);
  const double solve_1 = estimated_solve_seconds(probe.analysis().symbolic, 1);
  const double solve_k =
      estimated_solve_seconds(probe.analysis().symbolic, kRhsPerSet);
  const double batch_ratio = kRhsPerSet * solve_1 / solve_k;

  Table table("Serving throughput: warm SolverService vs per-request Solver",
              {"variant", "sim seconds", "sim req/s", "wall s"});
  table.add_row({std::string("naive per-request"), naive_sim, naive_rps,
                 naive_wall});
  table.add_row({std::string("warm service"), service_sim, service_rps,
                 serve_wall});
  bench::emit(table, "serve_throughput.csv");

  obs::BenchRecord record = bench::make_bench_record("serve_throughput");
  record.set_config("grid", std::to_string(dim(24)) + "x" +
                                std::to_string(dim(24)) + "x" +
                                std::to_string(dim(20)));
  record.set_config("value_sets", std::to_string(kValueSets));
  record.set_config("rhs_per_set", std::to_string(kRhsPerSet));
  const auto higher = obs::MetricDirection::HigherIsBetter;
  const auto info = obs::MetricDirection::Info;
  record.add_metric("analysis_cache_hit_rate", stats.analysis_hit_rate(),
                    higher);
  record.add_metric("naive_sim_requests_per_second", naive_rps, higher);
  record.add_metric("service_sim_requests_per_second", service_rps, higher);
  record.add_metric("service_vs_naive_sim_speedup", speedup, higher);
  record.add_metric("batched_vs_unbatched_solve_ratio", batch_ratio, higher);
  record.add_metric("bitwise_identical_solutions",
                    bitwise_identical ? 1.0 : 0.0, obs::MetricDirection::Exact);
  record.add_metric("naive_wall_seconds", naive_wall, info);
  record.add_metric("service_wall_seconds", serve_wall, info);
  // Tracing-overhead guard: the gated metrics above all come from the
  // UNTRACED pass (tracing off changes nothing vs the baselines); the
  // traced pass's cost is informational, and its simulated charges must
  // match the untraced pass exactly (same deterministic batch composition).
  record.add_metric("traced_sim_matches_untraced",
                    traced_sim == service_sim ? 1.0 : 0.0,
                    obs::MetricDirection::Exact);
  record.add_metric("tracing_off_wall_seconds", serve_wall, info);
  record.add_metric("tracing_on_wall_seconds", traced_wall, info);
  record.add_metric("tracing_overhead_ratio",
                    serve_wall > 0.0 ? traced_wall / serve_wall : 1.0, info);
  bench::emit_bench_record(record);

  std::printf(
      "%d requests, %d value sets: %.2fx simulated speedup (%.1f -> %.1f "
      "sim req/s), %.2fx batched-solve ratio, solutions %s\n",
      kRequests, kValueSets, speedup, naive_rps, service_rps, batch_ratio,
      bitwise_identical ? "bitwise identical" : "DIVERGED");
  if (!bitwise_identical) {
    std::fprintf(stderr, "FAIL: service solutions diverged from naive\n");
    return 1;
  }
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: simulated speedup %.2f below the 3x bar\n",
                 speedup);
    return 1;
  }
  return 0;
}
