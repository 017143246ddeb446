// Solve-phase throughput: the level-scheduled blocked multi-RHS solve
// (multifrontal/parallel_solve.hpp) against 16 independent single-RHS
// solves, on the Table II stand-ins.
//
// All gated metrics are SIMULATED quantities — the deterministic leveled
// estimate prices the blocked parallel pass, the one-thread streaming
// estimate prices the 16 single-RHS passes — so the numbers are identical
// on every machine and CI can gate them tightly. The EXECUTED
// work-stealing virtual makespan depends on which worker wins each task,
// and the wall-clock gain of one 16-wide pass over 16 one-wide passes
// depends on the host, so both ship as Info only.
//
// The acceptance bar: a 16-RHS blocked solve on 4 level-scheduled threads
// must deliver >= 2x the simulated RHS/sec of 16 single-RHS solves, at
// fixed post-refinement accuracy (every column's relative residual under
// 1e-10), with every column of the blocked solution bitwise equal to the
// 1-wide solve of that column. This binary exits nonzero if any of the
// three fails.
#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "policy/executors.hpp"
#include "support/rng.hpp"

using namespace mfgpu;

namespace {

constexpr index_t kRhs = 16;
constexpr int kThreads = 4;
constexpr double kAccuracy = 1e-10;  // relative residual after refinement

/// Best-of-`reps` wall seconds of `run`.
template <typename F>
double best_wall_seconds(int reps, F&& run) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    best = rep == 0 ? s : std::min(best, s);
  }
  return best;
}

Matrix<double> random_block(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> b(n, kRhs);
  for (index_t c = 0; c < kRhs; ++c) {
    for (index_t i = 0; i < n; ++i) b(i, c) = rng.uniform(-1.0, 1.0);
  }
  return b;
}

}  // namespace

int main() {
  const auto testset = bench::load_testset();

  Table table("Blocked level-scheduled solve vs 16 single-RHS solves",
              {"matrix", "levels", "max width", "16x1 sim s",
               "blocked sim s (4T)", "speedup", "sim rhs/s",
               "wall speedup"});
  obs::BenchRecord record = bench::make_bench_record("solve_throughput");
  record.set_config("rhs", std::to_string(kRhs));
  record.set_config("solve_threads", std::to_string(kThreads));
  const auto higher = obs::MetricDirection::HigherIsBetter;
  const auto exact = obs::MetricDirection::Exact;
  const auto info = obs::MetricDirection::Info;

  bool all_bitwise = true;
  bool all_refined = true;
  double min_speedup = 0.0;
  for (const auto& bm : testset) {
    const SymbolicFactor& sym = bm.analysis.symbolic;
    const index_t n = sym.n();
    PolicyExecutor p1(Policy::P1);
    FactorContext ctx;
    const FactorizeResult factored = factorize(bm.analysis, p1, ctx);
    const SolveSchedule schedule = build_solve_schedule(sym);
    const Matrix<double> b = random_block(n, 42);

    ParallelSolveOptions options;
    options.threads = kThreads;
    options.schedule = &schedule;

    // Baseline: 16 independent 1-wide solves, priced as 16 full-panel
    // streams. These columns are also the bitwise reference.
    std::vector<Matrix<double>> columns;
    for (index_t c = 0; c < kRhs; ++c) {
      Matrix<double> col(n, 1);
      std::copy(b.data() + c * n, b.data() + (c + 1) * n, col.data());
      columns.push_back(std::move(col));
    }
    std::vector<Matrix<double>> one_wide(static_cast<std::size_t>(kRhs));
    const double one_wide_wall = best_wall_seconds(5, [&] {
      for (index_t c = 0; c < kRhs; ++c) {
        one_wide[static_cast<std::size_t>(c)] =
            solve(bm.analysis, factored.factor,
                  columns[static_cast<std::size_t>(c)], 1, options);
      }
    });
    const double serial_sim =
        static_cast<double>(kRhs) * estimated_solve_seconds(sym, 1);

    // Blocked parallel pass: one 16-wide level-scheduled solve.
    Matrix<double> x;
    const double blocked_wall = best_wall_seconds(5, [&] {
      x = solve(bm.analysis, factored.factor, b, kRhs, options);
    });
    const double blocked_sim =
        estimated_solve_seconds(sym, schedule, kRhs, kThreads);
    const double speedup = serial_sim / blocked_sim;
    const double wall_speedup = one_wide_wall / blocked_wall;

    bool bitwise = true;
    for (index_t c = 0; c < kRhs && bitwise; ++c) {
      for (index_t i = 0; i < n; ++i) {
        if (x(i, c) != one_wide[static_cast<std::size_t>(c)](i, 0)) {
          bitwise = false;
          break;
        }
      }
    }

    // Accuracy bar: blocked refinement must land every column's relative
    // residual under kAccuracy; its step count feeds the throughput figure
    // (each refinement step is one more blocked pass).
    const BlockRefineResult refined = solve_with_refinement(
        bm.problem.matrix, bm.analysis, factored.factor, b, 5, 1e-14, options);
    int max_steps = 0;
    bool accurate = true;
    for (index_t c = 0; c < kRhs; ++c) {
      double b_norm = 0.0;
      for (index_t i = 0; i < n; ++i) b_norm += b(i, c) * b(i, c);
      b_norm = std::sqrt(b_norm);
      const double rel =
          refined.residual_norms[static_cast<std::size_t>(c)].back() / b_norm;
      accurate = accurate && rel < kAccuracy;
      max_steps =
          std::max(max_steps, refined.iterations[static_cast<std::size_t>(c)]);
    }
    // Delivered throughput at the accuracy bar: the initial blocked pass
    // plus one blocked pass per refinement step.
    const double rhs_per_second =
        static_cast<double>(kRhs) /
        (blocked_sim * (1.0 + static_cast<double>(max_steps)));

    table.add_row({bm.problem.name, static_cast<double>(schedule.num_levels),
                   static_cast<double>(schedule.max_level_width), serial_sim,
                   blocked_sim, speedup, rhs_per_second, wall_speedup});
    const std::string& mat = bm.problem.name;
    record.add_metric(mat + ".blocked_parallel_speedup_16rhs", speedup, higher);
    record.add_metric(mat + ".sim_rhs_per_second", rhs_per_second, higher);
    record.add_metric(mat + ".bitwise_identical", bitwise ? 1.0 : 0.0, exact);
    record.add_metric(mat + ".refined_within_tolerance", accurate ? 1.0 : 0.0,
                      exact);
    record.add_metric(mat + ".schedule_levels",
                      static_cast<double>(schedule.num_levels), info);
    record.add_metric(mat + ".max_level_width",
                      static_cast<double>(schedule.max_level_width), info);
    record.add_metric(mat + ".refinement_steps",
                      static_cast<double>(max_steps), info);
    record.add_metric(mat + ".wall_blocked_speedup_16rhs", wall_speedup, info);

    all_bitwise = all_bitwise && bitwise;
    all_refined = all_refined && accurate;
    min_speedup = min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
  }

  bench::emit(table, "solve_throughput.csv");
  bench::emit_bench_record(record);
  std::printf(
      "%lld-RHS blocked solve on %d threads: worst-case %.2fx over "
      "single-RHS solves, solutions %s, refinement %s\n",
      static_cast<long long>(kRhs), kThreads, min_speedup,
      all_bitwise ? "bitwise identical" : "DIVERGED",
      all_refined ? "within tolerance" : "INACCURATE");
  if (!all_bitwise) {
    std::fprintf(stderr,
                 "FAIL: blocked solutions diverged from 1-wide solves\n");
    return 1;
  }
  if (!all_refined) {
    std::fprintf(stderr, "FAIL: refined residuals above %.0e\n", kAccuracy);
    return 1;
  }
  if (min_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: simulated speedup %.2f below the 2x bar\n",
                 min_speedup);
    return 1;
  }
  return 0;
}
