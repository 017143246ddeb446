// The traced run. The benchmark composes the layers Solver composes —
// build_graph -> minimum_degree -> analyze -> factorize (baseline hybrid on
// one simulated T10) or factorize_parallel -> solve_with_refinement — with
// the same options, records a span around every call, and checks that the
// composition reproduces the untraced Solver run exactly: simulated factor
// time, factor nnz, flops, policy call counts and the solution bitwise.
// On every timed pair it also measures the layers Solver hides: host dense
// kernels (replaying the run's own F-U shapes), the work-stealing pool, and
// one blocked solve.
#include <array>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "dense/potrf.hpp"
#include "multifrontal/parallel.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/baseline_hybrid.hpp"

namespace perfbench {

using namespace mfgpu;

namespace {

struct Problem {
  std::string name;
  const SparseSpd* a = nullptr;
  Matrix<double> b;
  SolverOptions options;
};

using PolicyCounts = std::array<std::int64_t, kMaxPolicyIndex + 1>;

PolicyCounts policy_counts(const FactorizationTrace& trace) {
  PolicyCounts counts{};
  for (const FuCallRecord& call : trace.calls) ++counts[static_cast<std::size_t>(call.policy)];
  return counts;
}

struct SolverRun {
  double wall_s = 0.0;
  double sim_s = 0.0;
  index_t factor_nnz = 0;
  double flops = 0.0;
  PolicyCounts policies{};
  Matrix<double> x;
};

/// The untraced reference: the Solver facade, phase by phase.
SolverRun run_solver(const Problem& p) {
  SolverRun run;
  const auto t0 = Clock::now();
  Solver solver = Solver::analyze(*p.a, p.options);
  solver.factor();
  run.x = solver.solve(p.b);
  run.wall_s = seconds_since(t0);
  run.sim_s = solver.factor_time();
  run.factor_nnz = solver.analysis().symbolic.factor_nnz();
  run.flops = solver.analysis().symbolic.factor_flops();
  run.policies = policy_counts(solver.trace());
  return run;
}

struct ComposedRun {
  double wall_s = 0.0, ordering_s = 0.0, symbolic_s = 0.0, factor_s = 0.0;
  std::optional<Analysis> analysis;
  FactorizeResult result;
  SolveSchedule schedule;
  BlockRefineResult refined;
};

/// The same pipeline through the layers' own public functions, traced.
ComposedRun run_composed(const Problem& p, SpanRecorder& spans) {
  const SolverOptions& o = p.options;
  ComposedRun run;
  SpanRecorder::Scope root(spans, "core." + p.name);
  {
    SpanRecorder::Scope order(spans, "ordering.total");
    Permutation perm = [&] {
      SymmetricGraph graph;
      {
        SpanRecorder::Scope s(spans, "ordering.build_graph");
        graph = build_graph(*p.a);
      }
      SpanRecorder::Scope s(spans, "ordering.minimum_degree");
      return minimum_degree(graph);
    }();
    run.ordering_s = order.seconds();
    SpanRecorder::Scope s(spans, "symbolic.analyze");
    run.analysis.emplace(analyze(*p.a, perm, o.analysis));
    run.symbolic_s = s.seconds();
  }
  if (o.num_threads > 1) {
    ParallelFactorizeOptions po;
    po.num_threads = o.num_threads;
    po.deterministic_reduction = o.deterministic_reduction;
    po.numeric.batching = o.batching;
    po.executor = o.executor;
    po.device = o.device;
    SpanRecorder::Scope s(spans, "multifrontal.factorize_parallel");
    run.result = factorize_parallel(*run.analysis, po);
    run.factor_s = s.seconds();
  } else {
    DispatchExecutor executor = make_baseline_hybrid(paper_thresholds(), o.executor);
    Device::Options device_options = o.device;
    device_options.numeric = true;
    Device device(device_options);
    FactorContext ctx;
    ctx.device = &device;
    FactorizeOptions fo;
    fo.batching = o.batching;
    SpanRecorder::Scope s(spans, "multifrontal.factorize");
    run.result = factorize(*run.analysis, executor, ctx, fo);
    run.factor_s = s.seconds();
  }
  {
    SpanRecorder::Scope s(spans, "multifrontal.solve_schedule");
    run.schedule = build_solve_schedule(run.analysis->symbolic);
  }
  {
    SpanRecorder::Scope s(spans, "multifrontal.solve_with_refinement");
    ParallelSolveOptions so;
    so.threads = std::max(1, o.solve_threads);
    so.schedule = &run.schedule;
    run.refined = solve_with_refinement(*p.a, *run.analysis, run.result.factor, p.b,
                                        o.max_refinement_steps, o.refinement_tolerance, so);
  }
  run.wall_s = root.seconds();
  return run;
}

/// Exact agreement of the composition with the Solver run; mismatches are
/// wrong answers. `compare_sim` is off for multi-threaded numeric phases,
/// whose virtual makespan depends on which thread wins a steal.
void check_agreement(const Problem& p, const SolverRun& s, const ComposedRun& c,
                     bool compare_sim, Outcome& out) {
  const std::string where = "agreement on " + p.name + ": ";
  if (compare_sim && c.result.trace.total_time != s.sim_s) {
    out.wrong(where + "sim_factor_s " + std::to_string(c.result.trace.total_time) +
              " vs " + std::to_string(s.sim_s));
  }
  if (c.analysis->symbolic.factor_nnz() != s.factor_nnz) out.wrong(where + "factor nnz");
  if (c.analysis->symbolic.factor_flops() != s.flops) out.wrong(where + "factor flops");
  if (policy_counts(c.result.trace) != s.policies) out.wrong(where + "policy call counts");
  const Matrix<double>& x = c.refined.x;
  if (x.rows() != s.x.rows() || x.cols() != s.x.cols() ||
      !bitwise_equal(x.data(), s.x.data(), static_cast<std::size_t>(x.rows() * x.cols()))) {
    out.wrong(where + "solution not bitwise equal");
  }
}

void check_answers(const Problem& p, const Matrix<double>& x, Outcome& out) {
  const index_t n = p.a->n();
  for (index_t j = 0; j < p.b.cols(); ++j) {
    const double residual = relative_residual(*p.a, x.data() + j * n, p.b.data() + j * n);
    out.count(true);
    if (!(residual <= kResidualTolerance)) {
      out.wrong(p.name + ": residual " + std::to_string(residual));
    }
  }
}

/// Deterministic per-layer quantities of a workload's problems, taken once.
struct LayerCounts {
  double factor_nnz = 0, flops = 0, supernodes = 0, tree_height = 0, max_front = 0;
  double potrf_ops = 0, trsm_ops = 0, syrk_ops = 0, kernel_bytes = 0;
  double assembly_sim_s = 0, stack_peak_mb = 0, factor_mb = 0;
  std::array<double, 5> calls{};
  double ops_total = 0, ops_gpu = 0, kernel_sim_s = 0, copy_sim_s = 0;
  double solve_sim_s = 0, levels = 0, level_width = 0, refine_steps = 0;
};

/// Wall times of one timed pair, summed over the workload's problems.
struct LayerWalls {
  double untraced_s = 0, traced_s = 0, ordering_s = 0, symbolic_s = 0;
  double potrf_s = 0, trsm_s = 0, syrk_s = 0;
  /// Numeric wall of the workload's factorization, and of its one-thread
  /// run (the replay's counterpart: the same kernels, one after another).
  double factor_s = 0, serial_factor_s = 0;
  double par1_s = 0, par4_s = 0, idle_s = 0, pool_wall_s = 0, steals = 0, makespan_s = 0;
  double solve_s = 0;

  double kernel_s() const { return potrf_s + trsm_s + syrk_s; }
};

/// Reusable operands for replaying F-U kernels in precision T. Every
/// kernel gets freshly filled inputs outside its timed region: a lower
/// pivot block with unit diagonal and off-diagonals 0.5/k (SPD and well
/// conditioned for any k) and a constant L2 panel.
template <typename T>
struct ReplayOperands {
  std::vector<T> l1, l2, u;

  ReplayOperands(index_t max_m, index_t max_k)
      : l1(static_cast<std::size_t>(max_k * max_k)),
        l2(static_cast<std::size_t>(max_m * max_k)),
        u(static_cast<std::size_t>(max_m * max_m), T(0)) {}

  MatrixView<T> fill_l1(index_t k) {
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = j; i < k; ++i) {
        l1[static_cast<std::size_t>(i + j * k)] = i == j ? T(1) : T(0.5) / static_cast<T>(k);
      }
    }
    return {l1.data(), k, k, std::max<index_t>(k, 1)};
  }
  MatrixView<T> fill_l2(index_t m, index_t k) {
    std::fill(l2.begin(), l2.begin() + m * k, T(0.25));
    return {l2.data(), m, k, std::max<index_t>(m, 1)};
  }

  double potrf_s(index_t k) {
    const MatrixView<T> a = fill_l1(k);
    const auto t0 = Clock::now();
    potrf(a);
    return seconds_since(t0);
  }
  double trsm_s(index_t m, index_t k) {
    const MatrixView<const T> a = fill_l1(k);
    const MatrixView<T> b = fill_l2(m, k);
    const auto t0 = Clock::now();
    trsm(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit, T(1), a, b);
    return seconds_since(t0);
  }
  double syrk_s(index_t m, index_t k) {
    const MatrixView<const T> a = fill_l2(m, k);
    const auto t0 = Clock::now();
    syrk_lower(T(-1), a, T(1), MatrixView<T>(u.data(), m, m, std::max<index_t>(m, 1)));
    return seconds_since(t0);
  }
};

/// Host potrf / trsm / syrk_lower on this run's own F-U shapes (m, k), each
/// kernel in the precision its policy ran it: double on the host, float on
/// the simulated device (P2 moves syrk there, P3 also trsm, P4 all three).
void replay_dense(const FactorizationTrace& trace, SpanRecorder& spans, LayerWalls& w) {
  index_t max_m = 0, max_k = 0;
  for (const FuCallRecord& c : trace.calls) {
    max_m = std::max(max_m, c.m);
    max_k = std::max(max_k, c.k);
  }
  ReplayOperands<double> host(max_m, max_k);
  ReplayOperands<float> device(max_m, max_k);
  SpanRecorder::Scope s(spans, "dense.replay");
  for (const FuCallRecord& c : trace.calls) {
    const index_t m = c.m, k = c.k;
    w.potrf_s += c.policy >= 4 ? device.potrf_s(k) : host.potrf_s(k);
    if (m > 0) {
      w.trsm_s += c.policy >= 3 ? device.trsm_s(m, k) : host.trsm_s(m, k);
      w.syrk_s += c.policy >= 2 ? device.syrk_s(m, k) : host.syrk_s(m, k);
    }
  }
}

/// Deterministic counts of one composed run.
void count_layers(const Problem& p, const ComposedRun& c, LayerCounts& t) {
  const SymbolicFactor& sym = c.analysis->symbolic;
  t.factor_nnz += static_cast<double>(sym.factor_nnz());
  t.flops += sym.factor_flops();
  t.supernodes += static_cast<double>(sym.num_supernodes());
  std::vector<index_t> depth(static_cast<std::size_t>(sym.num_supernodes()), 1);
  index_t height = 0, max_front = 0;
  for (index_t s = sym.num_supernodes() - 1; s >= 0; --s) {  // parents after children
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    if (sn.parent >= 0) {
      depth[static_cast<std::size_t>(s)] = depth[static_cast<std::size_t>(sn.parent)] + 1;
    }
    height = std::max(height, depth[static_cast<std::size_t>(s)]);
    max_front = std::max(max_front, sn.front_order());
  }
  t.tree_height = std::max(t.tree_height, static_cast<double>(height));
  t.max_front = std::max(t.max_front, static_cast<double>(max_front));

  const FactorizationTrace& trace = c.result.trace;
  t.assembly_sim_s += trace.assembly_time;
  for (const WorkerMemory& m : c.result.memory) {
    t.stack_peak_mb = std::max(t.stack_peak_mb, static_cast<double>(m.arena_peak_bytes) / 1e6);
  }
  t.factor_mb += static_cast<double>(c.result.factor.storage_bytes()) / 1e6;
  for (const FuCallRecord& call : trace.calls) {
    if (call.policy >= 1 && call.policy <= 4) t.calls[static_cast<std::size_t>(call.policy)] += 1;
    const double ops = call.ops_total();
    t.ops_total += ops;
    if (call.policy != 1) t.ops_gpu += ops;
    // Component times the simulated device spends in kernels, per policy.
    if (call.policy == 2) t.kernel_sim_s += call.t_syrk;
    if (call.policy == 3) t.kernel_sim_s += call.t_trsm + call.t_syrk;
    if (call.policy >= 4) t.kernel_sim_s += call.t_potrf + call.t_trsm + call.t_syrk;
    t.copy_sim_s += call.t_copy;

    const double m = static_cast<double>(call.m), k = static_cast<double>(call.k);
    t.potrf_ops += static_cast<double>(potrf_ops(call.k));
    t.trsm_ops += static_cast<double>(trsm_ops(call.m, call.k));
    t.syrk_ops += static_cast<double>(syrk_ops(call.m, call.k));
    // Elements each replayed kernel reads and writes once — potrf L1
    // (lower, in place), trsm L1 + L2 (in place), syrk L2 + U (lower, in
    // place) — at the width of the precision it ran in.
    const double potrf_w = call.policy >= 4 ? 4 : 8, trsm_w = call.policy >= 3 ? 4 : 8,
                 syrk_w = call.policy >= 2 ? 4 : 8;
    t.kernel_bytes += potrf_w * k * k + trsm_w * (k * k / 2 + 2 * m * k) +
                      syrk_w * (m * k + m * m);
  }

  const int solve_threads = std::max(1, p.options.solve_threads);
  t.solve_sim_s += estimated_solve_seconds(sym, c.schedule, p.b.cols(), solve_threads);
  t.levels = std::max(t.levels, static_cast<double>(c.schedule.num_levels));
  t.level_width = std::max(t.level_width, static_cast<double>(c.schedule.max_level_width));
  for (int it : c.refined.iterations) t.refine_steps = std::max(t.refine_steps, static_cast<double>(it));
}

/// The layer wall times Solver hides, on one composed run: dense replay,
/// the pool at 1 and 4 threads, and one blocked solve.
void time_layers(const Problem& p, const ComposedRun& c, SpanRecorder& spans, LayerWalls& w) {
  w.ordering_s += c.ordering_s;
  w.symbolic_s += c.symbolic_s;
  w.factor_s += c.factor_s;
  replay_dense(c.result.trace, spans, w);

  for (int threads : {1, 4}) {
    ParallelFactorizeOptions po;
    po.num_threads = threads;
    SpanRecorder::Scope s(spans, "sched.factorize_parallel_" + std::to_string(threads) + "t");
    const FactorizeResult r = factorize_parallel(*c.analysis, po);
    if (threads == 1) {
      w.par1_s += s.seconds();
      w.serial_factor_s += p.options.num_threads > 1 ? s.seconds() : c.factor_s;
      continue;
    }
    w.par4_s += s.seconds();
    w.idle_s += sum(r.pool_stats.idle_seconds);
    w.pool_wall_s += sum(r.pool_stats.wall_seconds);
    w.steals += static_cast<double>(r.pool_stats.total_steals());
    w.makespan_s += r.trace.total_time;
  }

  ParallelSolveOptions so;
  so.threads = std::max(1, p.options.solve_threads);
  so.schedule = &c.schedule;
  SpanRecorder::Scope s(spans, "multifrontal.blocked_solve");
  (void)solve(*c.analysis, c.result.factor, p.b, p.b.cols(), so);
  w.solve_s += s.seconds();
}

}  // namespace

Outcome run_traced(const Args& args) {
  Outcome out;
  SpanRecorder spans;
  // Inputs of the workload, built exactly as its end-to-end run builds them.
  std::vector<SparseSpd> owned;
  std::vector<ServePattern> patterns;
  std::vector<Problem> problems;
  if (args.workload == "oneshot_elastic3d") {
    owned.push_back(oneshot_matrix(args.seed));
    Rng rng = seeded_rng(args.seed, 10);
    problems.push_back({"oneshot", &owned[0], random_block(owned[0].n(), 1, rng),
                        oneshot_options()});
  } else if (args.workload == "refactor2d_multirhs") {
    const SparseSpd base = refactor_base_matrix(args.seed);
    Rng rng = seeded_rng(args.seed, 20);
    owned.push_back(scale_values(base, rng));
    problems.push_back({"refactor2d", &owned[0], random_block(base.n(), kRefactorRhs, rng),
                        refactor_options()});
  } else {
    patterns = serve_patterns(args.seed);
    Rng rng = seeded_rng(args.seed, 40);
    for (const ServePattern& p : patterns) {
      problems.push_back({p.name, p.variants[0].get(), random_block(p.variants[0]->n(), 1, rng),
                          serve_solver_options()});
    }
  }

  LayerCounts t;
  // Every pair times a traced composition against an untraced Solver run,
  // alternating which goes first. Pair 0 warms up and takes the exact
  // counts; each later pair also times the layers Solver hides, and every
  // wall metric is the median over those pairs.
  std::vector<LayerWalls> walls;
  Clock::time_point t0;
  // At least three timed pairs, for half the run's seconds; serving's
  // service loop runs a fixed number of requests after them.
  const double pair_seconds = args.seconds / 2;
  for (int pair = 0; pair < 4 || seconds_since(t0) < pair_seconds; ++pair) {
    if (pair == 1) t0 = Clock::now();
    LayerWalls w;
    for (const Problem& p : problems) {
      std::optional<SolverRun> s;
      if (pair % 2 == 0) s = run_solver(p);
      const ComposedRun c = run_composed(p, spans);
      if (pair % 2 == 1) s = run_solver(p);
      w.untraced_s += s->wall_s;
      w.traced_s += c.wall_s;
      check_answers(p, s->x, out);
      check_agreement(p, *s, c, p.options.num_threads == 1, out);
      if (pair > 0) {
        time_layers(p, c, spans, w);
        continue;
      }
      count_layers(p, c, t);
      if (p.options.num_threads > 1) {
        // The multi-threaded makespan is not exact; check it at one thread.
        Problem serial{p.name + "_1t", p.a, p.b, p.options};
        serial.options.num_threads = 1;
        check_agreement(serial, run_solver(serial), run_composed(serial, spans), true, out);
      }
    }
    if (pair > 0) walls.push_back(w);  // pair 0's walls include first-touch warm-up
  }
  std::printf("traced: %zu timed traced/untraced pairs over %zu problem(s); agreement %s\n",
              walls.size(), problems.size(), out.correct ? "exact" : "FAILED");

  double hit_rate = 0, evictions = 0, analyses = 0, factorizations = 0, batch_width = 0;
  if (!patterns.empty()) {
    serve::SolverService service(serve_options(serve_cache_budget(patterns)));
    ServeLoopResult r;
    {
      SpanRecorder::Scope s(spans, "serve.run");
      r = serve_loop(service, patterns, args.seed, 0.0, kServeTracedRequests, out, &spans);
    }
    service.shutdown(true);
    hit_rate = r.stats.analysis_hit_rate();
    evictions = static_cast<double>(r.cache.evictions);
    analyses = static_cast<double>(r.stats.analyses);
    factorizations = static_cast<double>(r.stats.factorizations);
    batch_width = r.stats.batches ? static_cast<double>(r.completed) / r.stats.batches : 0.0;
  }

  for (const auto& [layer, self_s] : spans.self_seconds_by_layer()) {
    std::printf("self time: %-13s %.6f s\n", layer.c_str(), self_s);
  }
  if (!args.spans_path.empty()) {
    spans.write_json(args.spans_path, host_facts());
    std::printf("spans: %s\n", args.spans_path.c_str());
  }

  // Median over the timed pairs of a per-pair wall quantity.
  const auto per_pair = [&](auto value) {
    std::vector<double> values;
    for (const LayerWalls& w : walls) values.push_back(value(w));
    return median(values);
  };
  const auto rate = [](double ops, double seconds) {
    return seconds > 0 ? ops / seconds / 1e9 : 0.0;
  };
  out.add("ordering.wall_s", per_pair([](const LayerWalls& w) { return w.ordering_s; }), "s");
  out.add("ordering.factor_nnz", t.factor_nnz, "count");
  out.add("ordering.factor_gflop", t.flops / 1e9, "Gflop");
  out.add("symbolic.wall_s", per_pair([](const LayerWalls& w) { return w.symbolic_s; }), "s");
  out.add("symbolic.supernodes", t.supernodes, "count");
  out.add("symbolic.tree_height", t.tree_height, "count");
  out.add("symbolic.max_front", t.max_front, "count");
  out.add("dense.replay_s", per_pair([](const LayerWalls& w) { return w.kernel_s(); }), "s");
  out.add("dense.potrf_gflops",
          per_pair([&](const LayerWalls& w) { return rate(t.potrf_ops, w.potrf_s); }), "GF/s");
  out.add("dense.trsm_gflops",
          per_pair([&](const LayerWalls& w) { return rate(t.trsm_ops, w.trsm_s); }), "GF/s");
  out.add("dense.syrk_gflops",
          per_pair([&](const LayerWalls& w) { return rate(t.syrk_ops, w.syrk_s); }), "GF/s");
  out.add("dense.ops_per_byte", (t.potrf_ops + t.trsm_ops + t.syrk_ops) / t.kernel_bytes, "op/B");
  out.add("multifrontal.gflops",
          per_pair([&](const LayerWalls& w) { return rate(t.flops, w.factor_s); }), "GF/s");
  out.add("multifrontal.nonkernel_s",
          per_pair([](const LayerWalls& w) { return w.serial_factor_s - w.kernel_s(); }), "s");
  out.add("multifrontal.assembly_sim_s", t.assembly_sim_s, "s");
  out.add("multifrontal.stack_peak_mb", t.stack_peak_mb, "MB");
  out.add("multifrontal.factor_mb", t.factor_mb, "MB");
  for (int policy = 1; policy <= 4; ++policy) {
    out.add("policy.calls_p" + std::to_string(policy), t.calls[static_cast<std::size_t>(policy)],
            "count");
  }
  out.add("policy.gpu_flop_share", t.ops_gpu / t.ops_total, "ratio");
  out.add("gpusim.kernel_sim_s", t.kernel_sim_s, "s");
  out.add("gpusim.copy_sim_s", t.copy_sim_s, "s");
  out.add("sched.speedup_4t", per_pair([](const LayerWalls& w) { return w.par1_s / w.par4_s; }),
          "x");
  out.add("sched.idle_frac",
          per_pair([](const LayerWalls& w) { return w.idle_s / w.pool_wall_s; }), "ratio");
  out.add("sched.steals", per_pair([](const LayerWalls& w) { return w.steals; }), "count");
  out.add("sched.virtual_makespan_s", per_pair([](const LayerWalls& w) { return w.makespan_s; }),
          "s");
  out.add("solve.wall_s", per_pair([](const LayerWalls& w) { return w.solve_s; }), "s");
  out.add("solve.sim_s", t.solve_sim_s, "s");
  out.add("solve.levels", t.levels, "count");
  out.add("solve.max_level_width", t.level_width, "count");
  out.add("refine.steps", t.refine_steps, "count");
  out.add("serve.analysis_hit_rate", hit_rate, "ratio");
  out.add("serve.cache_evictions", evictions, "count");
  out.add("serve.analyses", analyses, "count");
  out.add("serve.factorizations", factorizations, "count");
  out.add("serve.batch_width_mean", batch_width, "count");
  out.add("obs.tracing_overhead",
          per_pair([](const LayerWalls& w) { return w.traced_s; }) /
              per_pair([](const LayerWalls& w) { return w.untraced_s; }),
          "ratio");
  return out;
}

}  // namespace perfbench
