// mfgpu_explain — critical-path causal analysis of a factorization's
// virtual-time schedule, with a what-if sweep over resource rates (exact
// replay of the record; structural changes need a rerun).
//
// Runs a demo factorization (3-D Laplacian) with the schedule flight
// recorder on, then answers "why is the makespan what it is, and what
// change would shorten it":
//
//   mfgpu_explain                          text report (attribution, spine,
//                                          slack, default what-if sweep)
//   mfgpu_explain --workers 4              parallel driver on 4 GPU workers
//   mfgpu_explain --batching on            aggregated small-front batches
//   mfgpu_explain --trace sched.json       Chrome trace with the critical
//                                          path overlaid (cat "critical",
//                                          flow arrows across hand-offs)
//   mfgpu_explain --sweep sweep.json       JSON what-if sweep to a file
//   mfgpu_explain --once                   tiny fixed run, for CI smoke
//   mfgpu_explain --check-trace t.json     validate a Chrome-trace artifact
//                                          (serve bench output) and exit 0/2
//
// Exit codes: 0 success; 1 usage/setup error; 2 --check-trace validation
// failed.
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "obs/whatif.hpp"
#include "sched/worker.hpp"
#include "sparse/generators.hpp"
#include "support/json.hpp"

namespace {

using namespace mfgpu;

struct Args {
  int nx = 12, ny = 12, nz = 10;
  std::string mode = "baseline";
  int workers = 0;
  bool batching = false;
  std::string trace_path;
  std::string sweep_path;
  std::string check_trace_path;
  bool once = false;
  bool run_demo = true;
};

int usage() {
  std::cerr
      << "usage: mfgpu_explain [--nx N --ny N --nz N] [--mode serial|"
         "baseline|model]\n"
         "                     [--workers N] [--batching on|off] [--trace "
         "FILE]\n"
         "                     [--sweep FILE] [--once] [--check-trace "
         "FILE]\n";
  return 1;
}

/// Validate a Chrome-trace JSON artifact: an object with a non-empty
/// "traceEvents" array whose entries are objects carrying "ph" and "pid".
/// Returns 0 on success, 2 on any structural failure.
int check_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "mfgpu_explain: cannot open trace file " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  try {
    root = JsonValue::parse(buffer.str());
  } catch (const Error& e) {
    std::cerr << "mfgpu_explain: " << path << ": JSON parse failed: "
              << e.what() << "\n";
    return 2;
  }
  if (!root.is_object()) {
    std::cerr << "mfgpu_explain: " << path << ": root is not an object\n";
    return 2;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array() || events->items().empty()) {
    std::cerr << "mfgpu_explain: " << path
              << ": missing or empty traceEvents array\n";
    return 2;
  }
  std::size_t complete = 0, flows = 0;
  for (const JsonValue& ev : events->items()) {
    if (!ev.is_object() || ev.find("ph") == nullptr ||
        ev.find("pid") == nullptr) {
      std::cerr << "mfgpu_explain: " << path
                << ": trace event without ph/pid\n";
      return 2;
    }
    const JsonValue* ph = ev.find("ph");
    if (ph->type() == JsonValue::Type::String) {
      if (ph->as_string() == "X") ++complete;
      if (ph->as_string() == "s" || ph->as_string() == "f") ++flows;
    }
  }
  std::cout << "trace ok: " << path << " (" << events->items().size()
            << " events, " << complete << " spans, " << flows
            << " flow endpoints)\n";
  return 0;
}

void write_sweep_json(std::ostream& os, const Solver& solver,
                      const std::vector<obs::WhatIfKnobs>& grid) {
  os.precision(17);
  os << "{\n  \"recorded_makespan_seconds\": "
     << solver.schedule().makespan << ",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const obs::WhatIfResult r = solver.schedule_whatif(grid[i]);
    os << "    {\"label\": \"" << r.knobs.label()
       << "\", \"makespan_seconds\": " << r.makespan
       << ", \"speedup\": " << r.speedup << '}'
       << (i + 1 < grid.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

std::vector<obs::WhatIfKnobs> default_grid() {
  std::vector<obs::WhatIfKnobs> grid;
  for (const double f : {0.5, 2.0, 4.0}) {
    obs::WhatIfKnobs k;
    k.gpu_scale = f;
    grid.push_back(k);
  }
  for (const double f : {0.5, 2.0}) {
    obs::WhatIfKnobs k;
    k.transfer_scale = f;
    grid.push_back(k);
    k = {};
    k.host_scale = f;
    grid.push_back(k);
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A count flag's whole value must be a positive int.
    auto count = [&](int& out) {
      const char* v = next();
      char* end = nullptr;
      errno = 0;
      const long long value = v != nullptr ? std::strtoll(v, &end, 10) : 0;
      if (v == nullptr || end == v || *end != '\0' || errno == ERANGE ||
          value < 1 || value > std::numeric_limits<int>::max()) {
        std::cerr << "mfgpu_explain: " << arg
                  << " wants a positive count, got '" << (v != nullptr ? v : "")
                  << "'\n";
        return false;
      }
      out = static_cast<int>(value);
      return true;
    };
    if (arg == "--nx") {
      if (!count(args.nx)) return usage();
    } else if (arg == "--ny") {
      if (!count(args.ny)) return usage();
    } else if (arg == "--nz") {
      if (!count(args.nz)) return usage();
    } else if (arg == "--mode") {
      if (const char* v = next()) args.mode = v; else return usage();
    } else if (arg == "--workers") {
      if (!count(args.workers)) return usage();
    } else if (arg == "--batching") {
      const char* v = next();
      const std::string value = v != nullptr ? v : "";
      if (value != "on" && value != "off") {
        std::cerr << "mfgpu_explain: --batching wants on or off\n";
        return usage();
      }
      args.batching = value == "on";
    } else if (arg == "--trace") {
      if (const char* v = next()) args.trace_path = v; else return usage();
    } else if (arg == "--sweep") {
      if (const char* v = next()) args.sweep_path = v; else return usage();
    } else if (arg == "--check-trace") {
      if (const char* v = next()) args.check_trace_path = v;
      else return usage();
    } else if (arg == "--once") {
      args.once = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "mfgpu_explain: unknown argument " << arg << "\n";
      return usage();
    }
  }

  if (!args.check_trace_path.empty()) {
    const int rc = check_trace(args.check_trace_path);
    if (rc != 0 || !args.once) return rc;
    // --once --check-trace: also run the smoke demo below.
  }

  if (args.once) {
    args.nx = 6;
    args.ny = 5;
    args.nz = 4;
  }

  try {
    SolverOptions options;
    options.record_schedule = true;
    if (args.mode == "serial") {
      options.mode = SolverMode::Serial;
    } else if (args.mode == "baseline") {
      options.mode = SolverMode::BaselineHybrid;
    } else if (args.mode == "model") {
      options.mode = SolverMode::ModelHybrid;
    } else {
      std::cerr << "mfgpu_explain: unknown mode " << args.mode << "\n";
      return usage();
    }
    options.batching = args.batching;
    if (args.workers > 0) {
      options.workers.assign(static_cast<std::size_t>(args.workers),
                             WorkerSpec{.has_gpu = true});
    }

    const GridProblem problem =
        make_laplacian_3d(args.nx, args.ny, args.nz);
    std::cout << "factoring " << args.nx << "x" << args.ny << "x" << args.nz
              << " Laplacian (n = " << problem.matrix.n() << ", mode "
              << args.mode << ", "
              << (args.workers > 0 ? std::to_string(args.workers) +
                                         " gpu workers"
                                   : std::string("serial driver"))
              << ", batching " << (args.batching ? "on" : "off") << ")\n\n";
    const Solver solver(problem.matrix, options);

    const obs::CriticalPathReport report = solver.schedule_report();
    report.write_text(std::cout);

    // Null counterfactual: the replay engine must refold the recorded
    // makespan bitwise — a cheap self-check on every run.
    const obs::WhatIfResult null_replay =
        solver.schedule_whatif(obs::WhatIfKnobs{});
    if (null_replay.makespan != solver.schedule().makespan) {
      std::cerr << "mfgpu_explain: null replay mismatch ("
                << null_replay.makespan << " vs "
                << solver.schedule().makespan << ")\n";
      return 1;
    }
    std::cout << "\nNull replay: exact (" << null_replay.makespan
              << " s, bitwise)\n";

    const std::vector<obs::WhatIfKnobs> grid = default_grid();
    std::cout << "\nWhat-if sweep (" << grid.size() << " points):\n";
    std::cout.precision(6);
    for (const obs::WhatIfKnobs& knobs : grid) {
      const obs::WhatIfResult r = solver.schedule_whatif(knobs);
      std::cout << "  " << r.knobs.label() << ": " << r.makespan << " s ("
                << r.speedup << "x)\n";
    }

    if (!args.sweep_path.empty()) {
      std::ofstream out(args.sweep_path);
      if (!out) {
        std::cerr << "mfgpu_explain: cannot write " << args.sweep_path
                  << "\n";
        return 1;
      }
      write_sweep_json(out, solver, grid);
      std::cout << "\nwrote what-if sweep to " << args.sweep_path << "\n";
    }
    if (!args.trace_path.empty()) {
      std::ofstream out(args.trace_path);
      if (!out) {
        std::cerr << "mfgpu_explain: cannot write " << args.trace_path
                  << "\n";
        return 1;
      }
      obs::write_schedule_chrome_trace(solver.schedule(), &report, out);
      std::cout << "wrote Chrome trace (critical path overlaid) to "
                << args.trace_path << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "mfgpu_explain: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
