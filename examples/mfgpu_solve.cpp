// mfgpu_solve — command-line driver for the solver facade.
//
// Usage:
//   mfgpu_solve [--matrix FILE.mtx | --grid NX NY NZ [--elasticity]]
//               [--mode serial|baseline|model|ideal]
//               [--ordering natural|md|nd]
//               [--repeat N]
//               [--solve-threads N] [--rhs N]
//               [--threads N] [--workers SPEC]
//               [--batch off|on]
//               [--save-model FILE] [--load-model FILE]
//               [--out FILE.mtx]
//               [--trace FILE] [--metrics FILE] [--report FILE]
//
// --repeat N factors the system N times in total: after the first
// factorization, each round perturbs the matrix values (same sparsity
// pattern) and goes through Solver::refactor() + solve — the
// time-stepping / Newton-loop usage the phase-split API exists for. The
// summary line shows the simulated seconds the reused analysis saved.
//
// --threads N runs the numeric phase on N work-stealing CPU workers;
// --workers SPEC gives an explicit worker list instead, e.g. "cgg" = one
// CPU worker plus two GPU workers (each with a private simulated device).
// Parallel runs are bitwise-reproducible: the factor equals the serial one.
// Every count flag (--repeat, --threads, --solve-threads, --rhs) wants a
// whole number of at least 1. A bad --mode, --ordering or --workers value,
// or --save-model without --mode model, is a usage error too, reported
// before any matrix is built or written.
//
// --solve-threads N runs the triangular solves as a level-scheduled
// dependency DAG on N solve threads (multifrontal/parallel_solve.hpp);
// solutions are bitwise identical at every count. --rhs N solves a block
// of N right-hand sides in ONE blocked pass of dense kernel calls per
// refinement step, and reports the simulated RHS/sec against N one-RHS
// solves.
//
// --batch on selects the aggregated small-front execution path (one
// simulated kernel dispatch + one coalesced transfer per level group of
// small fronts); off is the default. Any other value is a usage error. The
// factor is bitwise identical with batching on or off.
//
// Observability: --trace and --metrics take the same values as the
// MFGPU_TRACE / MFGPU_METRICS environment variables and WIN over them when
// both are given. When trace and metrics are both set, the trace file gets
// the spans and the metrics files go to the metrics path. --report enables
// recording for the run (even without a trace file), prints the profiler
// tables, and writes the report JSON to FILE.
//
// Reads (or generates) an SPD system, factors it under the chosen policy
// mode, solves for a manufactured right-hand side, reports simulated
// timings and accuracy, and can persist/reuse a trained policy model.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "autotune/model_io.hpp"
#include "core/solver.hpp"
#include "obs/obs.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "multifrontal/trace_stats.hpp"
#include "serve/cost.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"
#include "symbolic/tree_stats.hpp"

using namespace mfgpu;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--matrix FILE.mtx | --grid NX NY NZ "
               "[--elasticity]] [--mode serial|baseline|model|ideal] "
               "[--ordering natural|md|nd] [--repeat N] "
               "[--solve-threads N] [--rhs N] "
               "[--threads N] [--workers SPEC] "
               "[--batch off|on] [--save-model FILE] "
               "[--load-model FILE] [--out FILE.mtx] [--trace FILE] "
               "[--metrics FILE] [--report FILE]\n"
               "observability precedence: --trace/--metrics override the "
               "MFGPU_TRACE/MFGPU_METRICS environment variables; with both "
               "trace and metrics set, spans go to the trace file and the "
               "metrics JSON/CSV to the metrics path. --report implies "
               "recording and writes the profiler report JSON to FILE.\n",
               argv0);
  std::exit(2);
}

struct CliOptions {
  std::string matrix_path;
  index_t nx = 12, ny = 12, nz = 10;
  bool elasticity = false;
  std::string mode_name = "baseline";
  SolverMode mode = SolverMode::BaselineHybrid;
  OrderingChoice ordering = OrderingChoice::NestedDissection;
  int repeat = 1;
  int threads = 1;
  int solve_threads = 1;
  index_t rhs = 1;  // --rhs N: blocked multi-RHS solve of N right-hand sides
  std::vector<WorkerSpec> workers;  // --workers "cgg": CPU + two GPU workers
  bool batch = false;
  std::string save_model;
  std::string load_model;
  std::string out_path;
  std::string trace_path;    // overrides MFGPU_TRACE
  std::string metrics_path;  // overrides MFGPU_METRICS
  std::string report_path;   // profiler report JSON
};

SolverMode parse_mode(const std::string& mode, const char* argv0) {
  if (mode == "serial") return SolverMode::Serial;
  if (mode == "baseline") return SolverMode::BaselineHybrid;
  if (mode == "model") return SolverMode::ModelHybrid;
  if (mode == "ideal") return SolverMode::IdealHybrid;
  std::fprintf(stderr, "unknown --mode: '%s'\n", mode.c_str());
  usage(argv0);
}

OrderingChoice parse_ordering(const std::string& ordering, const char* argv0) {
  if (ordering == "natural") return OrderingChoice::Natural;
  if (ordering == "md") return OrderingChoice::MinimumDegree;
  if (ordering == "nd") return OrderingChoice::NestedDissection;
  std::fprintf(stderr, "unknown --ordering: '%s'\n", ordering.c_str());
  usage(argv0);
}

CliOptions parse(int argc, char** argv) {
  constexpr long long kMaxInt = std::numeric_limits<int>::max();
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // The value of a count flag: a whole number in [1, max], else a usage
    // error.
    auto count_flag = [&](const char* flag, long long max) {
      const std::string value = next(flag);
      char* end = nullptr;
      errno = 0;
      const long long count = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
          count < 1 || count > max) {
        std::fprintf(stderr, "%s wants a positive count, got '%s'\n", flag,
                     value.c_str());
        usage(argv[0]);
      }
      return count;
    };
    if (arg == "--matrix") {
      cli.matrix_path = next("--matrix");
    } else if (arg == "--grid") {
      cli.nx = count_flag("--grid nx", kMaxInt);
      cli.ny = count_flag("--grid ny", kMaxInt);
      cli.nz = count_flag("--grid nz", kMaxInt);
    } else if (arg == "--elasticity") {
      cli.elasticity = true;
    } else if (arg == "--mode") {
      cli.mode_name = next("--mode");
      cli.mode = parse_mode(cli.mode_name, argv[0]);
    } else if (arg == "--ordering") {
      cli.ordering = parse_ordering(next("--ordering"), argv[0]);
    } else if (arg == "--repeat") {
      cli.repeat = static_cast<int>(count_flag("--repeat", kMaxInt));
    } else if (arg == "--threads") {
      cli.threads = static_cast<int>(count_flag("--threads", kMaxInt));
    } else if (arg == "--solve-threads") {
      cli.solve_threads =
          static_cast<int>(count_flag("--solve-threads", kMaxInt));
    } else if (arg == "--rhs") {
      cli.rhs = count_flag("--rhs", std::numeric_limits<index_t>::max());
    } else if (arg == "--workers") {
      cli.workers.clear();
      for (char c : next("--workers")) {
        if (c != 'c' && c != 'g') {
          std::fprintf(stderr, "--workers wants a string of 'c'/'g'\n");
          usage(argv[0]);
        }
        cli.workers.push_back(WorkerSpec{.has_gpu = (c == 'g')});
      }
    } else if (arg == "--batch" || arg.rfind("--batch=", 0) == 0) {
      const std::string value =
          arg == "--batch" ? next("--batch") : arg.substr(std::strlen("--batch="));
      if (value != "on" && value != "off") {
        std::fprintf(stderr, "--batch wants on or off, got '%s'\n",
                     value.c_str());
        usage(argv[0]);
      }
      cli.batch = value == "on";
    } else if (arg == "--save-model") {
      cli.save_model = next("--save-model");
    } else if (arg == "--load-model") {
      cli.load_model = next("--load-model");
    } else if (arg == "--out") {
      cli.out_path = next("--out");
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      cli.trace_path =
          arg == "--trace" ? next("--trace") : arg.substr(std::strlen("--trace="));
    } else if (arg == "--metrics" || arg.rfind("--metrics=", 0) == 0) {
      cli.metrics_path = arg == "--metrics"
                             ? next("--metrics")
                             : arg.substr(std::strlen("--metrics="));
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      cli.report_path = arg == "--report"
                            ? next("--report")
                            : arg.substr(std::strlen("--report="));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (!cli.save_model.empty() && cli.mode != SolverMode::ModelHybrid) {
    std::fprintf(stderr, "--save-model requires --mode model\n");
    usage(argv[0]);
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions cli = parse(argc, argv);

    // MFGPU_TRACE=out.json / MFGPU_METRICS=m.json activate the observability
    // layer for the whole run; files are written when the scope closes.
    // --trace/--metrics override the env vars; --report forces recording so
    // the profiler has spans and decisions to aggregate.
    const char* env_trace = std::getenv("MFGPU_TRACE");
    const char* env_metrics = std::getenv("MFGPU_METRICS");
    obs::ObsConfig obs_config = obs::make_config(
        !cli.trace_path.empty() ? cli.trace_path
                                : (env_trace != nullptr ? env_trace : ""),
        !cli.metrics_path.empty()
            ? cli.metrics_path
            : (env_metrics != nullptr ? env_metrics : ""));
    if (!cli.report_path.empty()) obs_config.record = true;
    obs::ObsScope obs_scope(obs_config);
    if (obs_scope.active()) {
      if (!obs_scope.config().trace_path.empty()) {
        std::printf("observability: trace -> %s\n",
                    obs_scope.config().trace_path.c_str());
      }
      if (!obs_scope.config().metrics_json_path.empty()) {
        std::printf("observability: metrics -> %s, %s\n",
                    obs_scope.config().metrics_json_path.c_str(),
                    obs_scope.config().metrics_csv_path.c_str());
      }
    }

    // Input system.
    GridProblem problem;
    if (!cli.matrix_path.empty()) {
      problem.matrix = read_matrix_market(cli.matrix_path);
      problem.name = cli.matrix_path;
      if (cli.ordering == OrderingChoice::NestedDissection) {
        std::fprintf(stderr,
                     "note: --ordering nd needs grid coordinates; falling "
                     "back to minimum degree for file input\n");
      }
    } else if (cli.elasticity) {
      Rng rng(1);
      problem = make_elasticity_3d(cli.nx, cli.ny, cli.nz, 3, rng);
    } else {
      problem = make_laplacian_3d(cli.nx, cli.ny, cli.nz);
    }
    const MatrixStats stats = compute_stats(problem.matrix);
    std::printf("matrix %s: n=%lld nnz=%lld (%.1f/row)\n",
                problem.name.c_str(), static_cast<long long>(stats.n),
                static_cast<long long>(stats.nnz_full),
                stats.avg_nnz_per_row);
    if (!cli.out_path.empty()) {
      write_matrix_market(cli.out_path, problem.matrix);
      std::printf("wrote %s\n", cli.out_path.c_str());
    }

    // Solver configuration.
    SolverOptions options;
    options.mode = cli.mode;
    options.ordering = (!cli.matrix_path.empty() &&
                        cli.ordering == OrderingChoice::NestedDissection)
                           ? OrderingChoice::MinimumDegree
                           : cli.ordering;
    options.coordinates = problem.coords;
    options.num_threads = cli.threads;
    options.solve_threads = cli.solve_threads;
    options.batching = cli.batch;
    options.workers = cli.workers;

    // Phase-split API: the symbolic handle is built once and could be
    // refactored with new values (see examples/refactor_loop.cpp).
    Solver solver = Solver::analyze(problem.matrix, options);
    solver.factor();

    const TreeStats tree = supernode_tree_stats(solver.analysis().symbolic);
    std::printf(
        "analysis: %lld supernodes, tree height %lld, max front %lld, "
        "%.3g flops, tree parallelism %.1fx\n",
        static_cast<long long>(tree.num_supernodes),
        static_cast<long long>(tree.height),
        static_cast<long long>(tree.max_front_order), tree.total_flops,
        tree.tree_parallelism());

    const PolicyBreakdown breakdown = policy_breakdown(solver.trace());
    std::printf(
        "factorization: %.4f simulated s under mode '%s' "
        "(%.4f wall s, ~%.4f s per solve)\n",
        solver.factor_time(), cli.mode_name.c_str(), solver.factor_wall_seconds(),
        solver.solve_time_estimate());
    for (int p = 1; p <= kMaxPolicyIndex; ++p) {
      if (breakdown.calls[static_cast<std::size_t>(p)] == 0) continue;
      std::printf("  %s: %lld calls, %.4f s\n",
                  policy_name(static_cast<Policy>(p)),
                  static_cast<long long>(
                      breakdown.calls[static_cast<std::size_t>(p)]),
                  breakdown.time[static_cast<std::size_t>(p)]);
    }

    // Persist / reuse the trained model.
    if (!cli.save_model.empty()) {
      save_policy_model(cli.save_model, *solver.model());
      std::printf("saved policy model to %s\n", cli.save_model.c_str());
    }
    if (!cli.load_model.empty()) {
      const TrainedPolicyModel loaded = load_policy_model(cli.load_model);
      std::printf("loaded model picks %s for (m=2000, k=1000)\n",
                  policy_name(loaded.choose(2000, 1000)));
    }

    // Schedule behind the triangular solves: its level depth is the solve's
    // critical path, its width the parallelism ceiling, and its subtree
    // groups the sweep tasks.
    const SolveSchedule solve_schedule =
        build_solve_schedule(solver.analysis().symbolic);
    std::printf(
        "solve schedule: %lld levels (max width %lld), %lld subtree groups, "
        "%d solve threads\n",
        static_cast<long long>(solve_schedule.num_levels),
        static_cast<long long>(solve_schedule.max_level_width),
        static_cast<long long>(solve_schedule.num_groups()), cli.solve_threads);

    // Solve for x* = 1.
    std::vector<double> x_true(static_cast<std::size_t>(problem.matrix.n()),
                               1.0);
    std::vector<double> b(x_true.size());
    problem.matrix.multiply(x_true, b);
    const RefineResult solution = solver.solve_with_history(b);
    double max_err = 0.0;
    for (double v : solution.x) max_err = std::max(max_err, std::abs(v - 1.0));
    std::printf("solve: residual %.3e -> %.3e (%d refinement steps), "
                "max |x - 1| = %.3e\n",
                solution.residual_norms.front(),
                solution.residual_norms.back(), solution.iterations, max_err);

    // --rhs N: one blocked refined pass over N right-hand sides. Column j
    // is b scaled by 1/(1+j), so its exact solution is x*_j = 1/(1+j).
    if (cli.rhs > 1) {
      const index_t n = problem.matrix.n();
      Matrix<double> block(n, cli.rhs);
      for (index_t j = 0; j < cli.rhs; ++j) {
        const double scale = 1.0 / (1.0 + static_cast<double>(j));
        for (index_t i = 0; i < n; ++i) {
          block(i, j) = b[static_cast<std::size_t>(i)] * scale;
        }
      }
      const Matrix<double> xs = solver.solve(block);
      double block_err = 0.0;
      for (index_t j = 0; j < cli.rhs; ++j) {
        const double scale = 1.0 / (1.0 + static_cast<double>(j));
        for (index_t i = 0; i < n; ++i) {
          block_err = std::max(block_err, std::abs(xs(i, j) / scale - 1.0));
        }
      }
      max_err = std::max(max_err, block_err);
      const SymbolicFactor& sym = solver.analysis().symbolic;
      const double serial_per_rhs = estimated_solve_seconds(sym, 1);
      const double blocked = estimated_solve_seconds(
          sym, solve_schedule, cli.rhs, cli.solve_threads);
      std::printf(
          "blocked solve: %lld rhs in ~%.4f simulated s "
          "(%.1f rhs/s, %.2fx over one rhs at a time), max error %.3e\n",
          static_cast<long long>(cli.rhs), blocked,
          static_cast<double>(cli.rhs) / blocked,
          static_cast<double>(cli.rhs) * serial_per_rhs / blocked, block_err);
    }

    // --repeat: refactor rounds with perturbed values on the same pattern.
    // Each round scales every entry by (1 + 0.05 r) — still SPD, so the
    // exact solution of round r is x* = 1 / (1 + 0.05 r).
    if (cli.repeat > 1) {
      const double analyze_estimate = serve::estimated_analyze_seconds(
          problem.matrix, solver.analysis().symbolic);
      double refactor_sim = 0.0;
      double worst_err = 0.0;
      std::vector<double> values(problem.matrix.values().begin(),
                                 problem.matrix.values().end());
      for (int r = 1; r < cli.repeat; ++r) {
        const double scale = 1.0 + 0.05 * r;
        std::vector<double> scaled(values);
        for (double& v : scaled) v *= scale;
        const SparseSpd perturbed(
            problem.matrix.n(),
            std::vector<index_t>(problem.matrix.col_ptr().begin(),
                                 problem.matrix.col_ptr().end()),
            std::vector<index_t>(problem.matrix.row_idx().begin(),
                                 problem.matrix.row_idx().end()),
            std::move(scaled));
        solver.refactor(perturbed);
        refactor_sim += solver.factor_time();
        const std::vector<double> x = solver.solve(b);
        for (double v : x) {
          worst_err = std::max(worst_err, std::abs(v * scale - 1.0));
        }
      }
      max_err = std::max(max_err, worst_err);
      std::printf(
          "repeat: %d refactor rounds, %.4f simulated s total, max scaled "
          "error %.3e; reused analysis saved ~%.4f simulated s\n",
          cli.repeat - 1, refactor_sim, worst_err,
          analyze_estimate * (cli.repeat - 1));
    }

    // Profiler report: aggregate while the ObsScope is still recording
    // (finishing the scope clears the recorded spans).
    if (!cli.report_path.empty()) {
      const obs::ProfileReport report = solver.profile_report();
      report.print(std::cout);
      std::ofstream report_os(cli.report_path);
      if (!report_os) {
        std::fprintf(stderr, "cannot write --report file %s\n",
                     cli.report_path.c_str());
        return 2;
      }
      report.write_json(report_os);
      std::printf("wrote profiler report to %s\n", cli.report_path.c_str());
    }
    return (max_err < 1e-6) ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
