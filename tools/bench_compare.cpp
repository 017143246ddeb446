// bench_compare: diff bench result JSONs (see obs/bench_json.hpp) and
// exit nonzero when the current run regressed past the thresholds — the CI
// smoke-bench gate.
//
//   bench_compare BASELINE.json CURRENT.json [--tolerance=0.10]
//                 [--metric-tolerance=NAME=TOL]...
//   bench_compare --dir BASELINE_DIR CURRENT_DIR [options...]
//
// Directory mode gates every BENCH_*.json found in BASELINE_DIR against the
// same-named file in CURRENT_DIR; a baseline with no current counterpart is
// a failure (the bench stopped running), while extra current files are
// ignored (a new bench has no baseline yet).
//
// Gating follows each baseline metric's recorded direction: LowerIsBetter /
// HigherIsBetter fail on a worsening move beyond the relative tolerance,
// Exact fails on any move beyond it, Info is never gated. A gated metric
// missing from the current file is a failure; metrics without a baseline
// are reported but do not gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bench_json.hpp"
#include "support/error.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--tolerance=FRACTION] "
               "[--metric-tolerance=NAME=FRACTION]...\n"
               "       %s --dir BASELINE_DIR CURRENT_DIR [options...]\n",
               argv0, argv0);
}

/// The whole of `text` as a finite double, or nothing.
std::optional<double> parse_fraction(std::string_view text) {
  const std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (owned.empty() || end != owned.c_str() + owned.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

const char* direction_label(mfgpu::obs::MetricDirection direction) {
  using mfgpu::obs::MetricDirection;
  switch (direction) {
    case MetricDirection::LowerIsBetter: return "lower";
    case MetricDirection::HigherIsBetter: return "higher";
    case MetricDirection::Exact: return "exact";
    case MetricDirection::Info: return "info";
  }
  return "info";
}

/// Compare one baseline/current file pair. Returns 0 (clean), 1
/// (regression), or 2 (structural error: unreadable/malformed file).
int compare_files(const std::string& baseline_path,
                  const std::string& current_path,
                  const mfgpu::obs::CompareOptions& options) {
  mfgpu::obs::BenchComparison comparison;
  try {
    const mfgpu::obs::BenchRecord baseline =
        mfgpu::obs::read_bench_file(baseline_path);
    const mfgpu::obs::BenchRecord current =
        mfgpu::obs::read_bench_file(current_path);
    std::printf("bench %s: baseline sha %s, current sha %s\n",
                current.name.c_str(), baseline.git_sha.c_str(),
                current.git_sha.c_str());
    comparison = mfgpu::obs::compare_bench(baseline, current, options);
  } catch (const mfgpu::Error& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  for (const auto& metric : comparison.metrics) {
    std::printf("%s %-40s %-7s base %.6g cur %.6g (%+.2f%%, tol %.0f%%)\n",
                metric.regression ? "FAIL" : "  ok", metric.name.c_str(),
                direction_label(metric.direction), metric.baseline,
                metric.current, 100.0 * metric.relative_change,
                100.0 * metric.tolerance);
  }
  for (const auto& note : comparison.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  return comparison.regressed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool dir_mode = false;
  mfgpu::obs::CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--dir") {
      dir_mode = true;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      const std::optional<double> tolerance = parse_fraction(arg.substr(12));
      if (!tolerance || *tolerance <= 0.0) {
        std::fprintf(stderr, "bench_compare: invalid %s\n", argv[i]);
        usage(argv[0]);
        return 2;
      }
      options.default_tolerance = *tolerance;
    } else if (arg.rfind("--metric-tolerance=", 0) == 0) {
      const std::string_view spec = arg.substr(19);
      const std::size_t eq = spec.rfind('=');
      const std::optional<double> tolerance =
          eq == std::string_view::npos ? std::nullopt
                                       : parse_fraction(spec.substr(eq + 1));
      if (eq == 0 || !tolerance || *tolerance < 0.0) {
        std::fprintf(stderr, "bench_compare: expected NAME=TOL in %s\n",
                     argv[i]);
        usage(argv[0]);
        return 2;
      }
      options.tolerance_overrides.emplace_back(std::string(spec.substr(0, eq)),
                                               *tolerance);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown option %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.size() != 2) {
    usage(argv[0]);
    return 2;
  }

  if (!dir_mode) {
    const int status = compare_files(paths[0], paths[1], options);
    if (status == 1) std::printf("REGRESSION: thresholds exceeded\n");
    if (status == 0) std::printf("no regression\n");
    return status;
  }

  // Directory mode: every baseline must have a clean current counterpart.
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  try {
    for (const auto& entry : fs::directory_iterator(paths[0])) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 && name.ends_with(".json")) {
        names.push_back(name);
      }
    }
  } catch (const fs::filesystem_error& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  if (names.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json under %s\n",
                 paths[0].c_str());
    return 2;
  }
  std::sort(names.begin(), names.end());

  int worst = 0;
  for (const std::string& name : names) {
    const std::string baseline_path = (fs::path(paths[0]) / name).string();
    const std::string current_path = (fs::path(paths[1]) / name).string();
    if (!fs::exists(current_path)) {
      std::fprintf(stderr,
                   "bench_compare: %s has no current run under %s (bench "
                   "not executed?)\n",
                   name.c_str(), paths[1].c_str());
      worst = std::max(worst, 2);
      continue;
    }
    worst = std::max(worst, compare_files(baseline_path, current_path,
                                          options));
  }
  if (worst == 0) {
    std::printf("no regression across %zu bench files\n", names.size());
  } else {
    std::printf("REGRESSION: one or more bench files failed the gate\n");
  }
  return worst;
}
