// mfgpu repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Workloads: oneshot_elastic3d, refactor2d_multirhs, serve_mixed_patterns
// (see METRICS.md). --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the exit
// code is nonzero when any answer was wrong.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "oneshot_elastic3d|refactor2d_multirhs|serve_mixed_patterns "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload != "oneshot_elastic3d" && args.workload != "refactor2d_multirhs" &&
      args.workload != "serve_mixed_patterns") {
    usage("unknown workload");
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  std::printf("%s\nworkload: %s seed=%llu seconds=%g trace=%d\n",
              perfbench::host_facts().c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  perfbench::Outcome outcome;
  try {
    if (args.trace) {
      outcome = perfbench::run_traced(args);
    } else if (args.workload == "oneshot_elastic3d") {
      outcome = perfbench::run_oneshot(args);
    } else if (args.workload == "refactor2d_multirhs") {
      outcome = perfbench::run_refactor(args);
    } else {
      outcome = perfbench::run_serve(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", outcome.json().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
