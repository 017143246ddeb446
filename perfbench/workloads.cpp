// The three end-to-end workloads. Each is a closed loop over one seeded
// input generator that times the library's public calls from outside and
// checks every answer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>

#include "bench.hpp"

namespace perfbench {

using namespace mfgpu;

namespace {

/// Shared tail of every end-to-end report, from the timed operations'
/// latencies. A tail quantile is reported only with >= 10 samples beyond
/// it: p99 from 1000 samples; below that the highest quantile that has 10
/// beyond it (the 11th-largest sample), since a lone maximum swings with
/// one slow moment of the host; with 10 samples or fewer, the maximum.
/// The line printed names the quantile reported.
void add_latency_metrics(Outcome& out, const std::vector<double>& latency_s) {
  const std::size_t n = latency_s.size();
  const double q = n >= 1000 ? 0.99 : n > 10 ? static_cast<double>(n - 10) / n : 1.0;
  std::printf("latency: %zu samples, min %.3f ms, max %.3f ms; latency_p99_ms is the "
              "nearest-rank p%.4g%s\n",
              n, 1e3 * percentile(latency_s, 0.0), 1e3 * percentile(latency_s, 1.0), 100 * q,
              n >= 1000 ? "" : " (p99 needs >= 1000 samples)");
  out.add("latency_p50_ms", 1e3 * median(latency_s), "ms");
  out.add("latency_p99_ms", 1e3 * percentile(latency_s, q), "ms");
}

void add_common_metrics(Outcome& out, const std::vector<double>& setup_s) {
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("setup: median of %zu set-ups\nerror_rate: %.6g (%lld failed / %lld attempted)\n",
              setup_s.size(),
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
              static_cast<long long>(out.failed), static_cast<long long>(out.attempted));
}

}  // namespace

// ---- oneshot_elastic3d -----------------------------------------------------

Outcome run_oneshot(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  SparseSpd a;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    a = oneshot_matrix(args.seed);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("inputs: n=%lld nnz=%lld pattern_fp=%s values_fp=%s\n",
              static_cast<long long>(a.n()), static_cast<long long>(a.nnz_full()),
              hex(a.pattern_fingerprint()).c_str(), hex(a.values_fingerprint()).c_str());

  const SolverOptions options = oneshot_options();
  Rng rng = seeded_rng(args.seed, 10);
  std::vector<double> tts, factor, solve, sim;
  const auto loop_t0 = Clock::now();
  // At least three operations so every median has a middle.
  while (tts.size() < 3 || seconds_since(loop_t0) < args.seconds) {
    const std::vector<double> x_true = random_vector(a.n(), rng);
    std::vector<double> b(x_true.size());
    a.multiply(x_true, b);

    const auto t0 = Clock::now();
    Solver solver = Solver::analyze(a, options);
    const auto t1 = Clock::now();
    solver.factor();
    const auto t2 = Clock::now();
    const std::vector<double> x = solver.solve(b);
    const auto t3 = Clock::now();

    tts.push_back(std::chrono::duration<double>(t3 - t0).count());
    factor.push_back(std::chrono::duration<double>(t2 - t1).count());
    solve.push_back(std::chrono::duration<double>(t3 - t2).count());
    sim.push_back(solver.factor_time());
    if (tts.size() == 1) {
      const SymbolicFactor& sym = solver.analysis().symbolic;
      std::printf("inputs: %lld supernodes, factor nnz %lld, %.6g flops\n",
                  static_cast<long long>(sym.num_supernodes()),
                  static_cast<long long>(sym.factor_nnz()), sym.factor_flops());
    }

    const double residual = relative_residual(a, x.data(), b.data());
    const double error = relative_error(x, x_true);
    out.count(true);
    if (!(residual <= kResidualTolerance) || !(error <= 1e-6)) {
      out.wrong("oneshot: residual " + std::to_string(residual) + ", error " +
                std::to_string(error));
    }
    if (sim.back() != sim.front()) out.wrong("oneshot: simulated factor time not deterministic");
  }
  const double loop_s = seconds_since(loop_t0);
  const double ops = static_cast<double>(tts.size());

  out.add("time_to_solution_s", median(tts), "s");
  out.add("factor_wall_s", median(factor), "s");
  out.add("sim_factor_s", median(sim), "s");
  out.add("steps_per_s", ops / loop_s, "1/s");
  out.add("rhs_per_s", ops / sum(solve), "1/s");
  out.add("req_per_s", ops / loop_s, "1/s");
  add_latency_metrics(out, tts);
  add_common_metrics(out, setup_s);
  return out;
}

// ---- refactor2d_multirhs ---------------------------------------------------

Outcome run_refactor(const Args& args) {
  Outcome out;
  const SolverOptions options = refactor_options();
  std::vector<double> setup_s;
  SparseSpd base;
  std::optional<Solver> solver;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    base = refactor_base_matrix(args.seed);
    Rng rng = seeded_rng(args.seed, 20);
    const SparseSpd a0 = scale_values(base, rng);
    solver.emplace(Solver::analyze(a0, options));
    solver->factor();
    const Matrix<double> warm = random_block(base.n(), kRefactorRhs, rng);
    (void)solver->solve(warm);  // builds the cached solve schedule
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("inputs: n=%lld nnz=%lld pattern_fp=%s\n", static_cast<long long>(base.n()),
              static_cast<long long>(base.nnz_full()), hex(base.pattern_fingerprint()).c_str());

  Rng rng = seeded_rng(args.seed, 21);
  std::uint64_t values_fp = 0;
  std::vector<double> step, refactor, solve;
  const auto loop_t0 = Clock::now();
  while (step.size() < 3 || seconds_since(loop_t0) < args.seconds) {
    const SparseSpd a = scale_values(base, rng);
    const Matrix<double> b = random_block(a.n(), kRefactorRhs, rng);
    values_fp ^= a.values_fingerprint();

    const auto t0 = Clock::now();
    solver->refactor(a);
    const auto t1 = Clock::now();
    const Matrix<double> x = solver->solve(b);
    const auto t2 = Clock::now();

    refactor.push_back(std::chrono::duration<double>(t1 - t0).count());
    solve.push_back(std::chrono::duration<double>(t2 - t1).count());
    step.push_back(std::chrono::duration<double>(t2 - t0).count());

    for (index_t j = 0; j < kRefactorRhs; ++j) {
      const double residual =
          relative_residual(a, x.data() + j * a.n(), b.data() + j * a.n());
      out.count(true);
      if (!(residual <= kResidualTolerance)) {
        out.wrong("refactor2d: residual " + std::to_string(residual));
      }
    }
  }
  const double loop_s = seconds_since(loop_t0);
  const double steps = static_cast<double>(step.size());
  std::printf("inputs: values_fp(xor of %zu steps)=%s\n", step.size(), hex(values_fp).c_str());

  // The 4-worker virtual makespan depends on which worker wins a steal, so
  // the simulated time is the one-thread factor_time() of the same pattern
  // and first values, taken once outside the timed loop.
  SolverOptions serial = options;
  serial.num_threads = 1;
  Rng first = seeded_rng(args.seed, 20);
  Solver serial_solver = Solver::analyze(scale_values(base, first), serial);
  serial_solver.factor();

  out.add("time_to_solution_s", median(step), "s");
  out.add("factor_wall_s", median(refactor), "s");
  out.add("sim_factor_s", serial_solver.factor_time(), "s");
  out.add("steps_per_s", steps / sum(step), "1/s");
  out.add("rhs_per_s", steps * kRefactorRhs / sum(solve), "1/s");
  out.add("req_per_s", steps * kRefactorRhs / loop_s, "1/s");
  add_latency_metrics(out, step);
  add_common_metrics(out, setup_s);
  return out;
}

// ---- serve_mixed_patterns --------------------------------------------------

std::size_t serve_cache_budget(const std::vector<ServePattern>& patterns) {
  std::size_t total = 0;
  for (const ServePattern& p : patterns) {
    total += Solver::analyze(*p.variants[0], serve_solver_options())
                 .share_analysis()
                 ->approx_bytes;
  }
  return total / 2;
}

serve::ServeOptions serve_options(std::size_t cache_bytes) {
  serve::ServeOptions options;
  options.num_sessions = 2;
  options.analysis_cache_bytes = cache_bytes;
  options.solver = serve_solver_options();
  return options;
}

ServeLoopResult serve_loop(serve::SolverService& service,
                           const std::vector<ServePattern>& patterns,
                           std::uint64_t seed, double seconds, std::int64_t requests,
                           Outcome& out, SpanRecorder* spans) {
  struct Pending {
    std::future<serve::SolveResult> future;
    Clock::time_point submitted;
    int pattern = 0, variant = 0;
    std::vector<double> rhs;
    std::uint64_t index = 0;
    bool sampled = false;
  };
  struct Sample {
    int pattern, variant;
    std::uint64_t index, x_fingerprint;
  };
  // Request i's RHS is stream kRhsStream + i of the seed, so a sampled
  // answer is re-checked without keeping its vectors.
  constexpr std::uint64_t kRhsStream = 1u << 20;

  // Every request draws its own (pattern, variant) and has a fresh RHS.
  // Pattern p has Zipf(1) popularity, round(8 / (p + 1)) of every 22 draws;
  // its 3 variants are equally likely. Draws come from a cycle of 66 slots
  // in exactly these proportions, shuffled by the seed, so every seed sends
  // the same mix of work in its own order.
  std::vector<std::pair<int, int>> cycle;
  for (int p = 0; p < static_cast<int>(patterns.size()); ++p) {
    for (int v = 0; v < kServeVariants; ++v) {
      cycle.insert(cycle.end(), static_cast<std::size_t>(std::lround(8.0 / (p + 1))), {p, v});
    }
  }
  std::size_t next_slot = cycle.size();
  Rng stream = seeded_rng(seed, 30);
  Rng sampler = seeded_rng(seed, 31);
  std::uint64_t next_index = 0;
  std::uint64_t stream_fp = 14695981039346656037ull;

  serve::RequestOptions request;
  request.deadline_seconds = 30.0;

  ServeLoopResult result;
  std::vector<Sample> samples;
  std::deque<Pending> pending;
  const auto t0 = Clock::now();
  const auto submitting = [&] {
    return requests > 0 ? next_index < static_cast<std::uint64_t>(requests)
                        : seconds_since(t0) < seconds;
  };
  const auto finish = [&](Pending& p) {
    const serve::SolveResult r = p.future.get();
    const auto done = Clock::now();
    const double latency = std::chrono::duration<double>(done - p.submitted).count();
    if (spans != nullptr) spans->record("serve.request", p.submitted, done);
    const SparseSpd& a = *patterns[static_cast<std::size_t>(p.pattern)]
                              .variants[static_cast<std::size_t>(p.variant)];
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: request %s: %s\n", serve::status_name(r.status),
                   r.error.c_str());
      out.count(false);
      return;
    }
    out.count(true);
    ++result.completed;
    result.latency_s.push_back(latency);
    if (!r.analysis_cache_hit) {
      result.cold_latency_s.push_back(latency);
    } else if (!r.factor_reused) {
      result.refactor_latency_s.push_back(latency);
    }
    const double residual = relative_residual(a, r.x.data(), p.rhs.data());
    if (!(residual <= kResidualTolerance)) {
      out.wrong("serve: residual " + std::to_string(residual));
    }
    if (p.sampled) {
      samples.push_back({p.pattern, p.variant, p.index, fingerprint(r.x.data(), r.x.size())});
    }
  };

  while (!pending.empty() || submitting()) {
    while (pending.size() < kServeInFlight && submitting()) {
      if (next_slot == cycle.size()) {
        std::shuffle(cycle.begin(), cycle.end(), stream.engine());
        next_slot = 0;
      }
      const auto [pattern, variant] = cycle[next_slot++];
      const auto& a = patterns[static_cast<std::size_t>(pattern)]
                          .variants[static_cast<std::size_t>(variant)];
      Pending p;
      p.pattern = pattern;
      p.variant = variant;
      p.index = next_index++;
      Rng rhs_rng = seeded_rng(seed, kRhsStream + p.index);
      p.rhs = random_vector(a->n(), rhs_rng);
      p.sampled = sampler.bernoulli(1.0 / 16.0);
      stream_fp = fingerprint(p.rhs.data(), p.rhs.size(),
                              stream_fp ^ static_cast<std::uint64_t>(pattern * 3 + variant));
      p.submitted = Clock::now();
      p.future = service.submit(a, p.rhs, request);
      pending.push_back(std::move(p));
    }
    // Collect every resolved request; otherwise wait briefly on the oldest.
    bool any = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(*it);
        it = pending.erase(it);
        any = true;
      } else {
        ++it;
      }
    }
    if (!any && !pending.empty()) {
      pending.front().future.wait_for(std::chrono::microseconds(200));
    }
  }
  result.elapsed_s = seconds_since(t0);
  result.stats = service.stats();
  result.cache = service.cache_stats();
  std::printf("inputs: request stream fp=%s\n", hex(stream_fp).c_str());

  // Direct Solver check (untimed): every (pattern, variant) factored as a
  // session would; sampled service answers must match its solve bitwise.
  std::vector<double> sim_s;
  std::size_t solved = 0;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (int v = 0; v < kServeVariants; ++v) {
      const SparseSpd& a = *patterns[p].variants[static_cast<std::size_t>(v)];
      Solver solver = Solver::analyze(a, serve_solver_options());
      solver.factor();
      sim_s.push_back(solver.factor_time());
      for (const Sample& s : samples) {
        if (s.pattern != static_cast<int>(p) || s.variant != v) continue;
        Rng rhs_rng = seeded_rng(seed, kRhsStream + s.index);
        const std::vector<double> rhs = random_vector(a.n(), rhs_rng);
        const std::vector<double> x = solver.solve(rhs);
        ++solved;
        if (fingerprint(x.data(), x.size()) != s.x_fingerprint) {
          out.wrong("serve: answer differs from a direct Solver::solve on " +
                    patterns[p].name);
        }
      }
    }
  }
  std::printf("serve: %zu sampled answers matched a direct Solver::solve bitwise\n", solved);
  result.direct_sim_median_s = median(sim_s);
  return result;
}

Outcome run_serve(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<ServePattern> patterns;
  std::unique_ptr<serve::SolverService> service;
  for (int rep = 0; rep < 5; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    patterns = serve_patterns(args.seed);
    service = std::make_unique<serve::SolverService>(
        serve_options(serve_cache_budget(patterns)));
    setup_s.push_back(seconds_since(t0));
  }
  std::uint64_t pattern_fp = 0, values_fp = 0;
  for (const ServePattern& p : patterns) {
    for (const auto& a : p.variants) {
      pattern_fp = pattern_fp * 31 + a->pattern_fingerprint();
      values_fp = values_fp * 31 + a->values_fingerprint();
    }
  }
  std::printf("inputs: %zu patterns x %d variants pattern_fp=%s values_fp=%s\n",
              patterns.size(), kServeVariants, hex(pattern_fp).c_str(), hex(values_fp).c_str());

  const ServeLoopResult r =
      serve_loop(*service, patterns, args.seed, args.seconds, 0, out, nullptr);
  service->shutdown(true);
  std::printf("serve: %lld completed, %lld batches, %lld analyses, %lld factorizations, "
              "cache hits %lld / misses %lld / evictions %lld\n",
              static_cast<long long>(r.completed), static_cast<long long>(r.stats.batches),
              static_cast<long long>(r.stats.analyses),
              static_cast<long long>(r.stats.factorizations),
              static_cast<long long>(r.cache.hits), static_cast<long long>(r.cache.misses),
              static_cast<long long>(r.cache.evictions));

  const double completed = static_cast<double>(r.completed);
  // No factor() or solve is observable from outside the service: the wall
  // metrics are the latencies of the request classes that run them.
  std::printf("serve: %zu cold (full analyze) and %zu refactor/adopt requests\n",
              r.cold_latency_s.size(), r.refactor_latency_s.size());
  out.add("time_to_solution_s", median(r.cold_latency_s), "s");
  out.add("factor_wall_s", median(r.refactor_latency_s), "s");
  out.add("sim_factor_s", r.direct_sim_median_s, "s");
  out.add("steps_per_s", static_cast<double>(r.stats.batches) / r.elapsed_s, "1/s");
  out.add("rhs_per_s", completed / r.elapsed_s, "1/s");
  out.add("req_per_s", completed / r.elapsed_s, "1/s");
  add_latency_metrics(out, r.latency_s);
  add_common_metrics(out, setup_s);
  return out;
}

}  // namespace perfbench
