// Figures 5 and 6 — per-call component timings (potrf, trsm, syrk, copy)
// of the host implementation and the basic GPU implementation as a
// function of total op count (Fig. 5 absolute, Fig. 6 normalized within
// each call). Reproduces the observation that trsm/syrk on the GPU are
// more expensive than the CPU for small calls (#ops < 1e5) and cheaper for
// large ones (#ops > 1e8).
#include "common.hpp"

#include <map>

#include "multifrontal/trace_stats.hpp"

using namespace mfgpu;

namespace {

void emit_bins(const char* title, const std::map<int, TraceBin>& bins,
               bool fractional, const std::string& csv) {
  Table table(title, {"ops decade", "calls", "potrf", "trsm", "syrk", "copy"});
  for (const auto& [decade, a] : bins) {
    const double denom = fractional ? a.kernels() + a.copy
                                    : static_cast<double>(a.calls);
    if (denom <= 0) continue;
    table.add_row({std::string("1e") + std::to_string(decade), a.calls,
                   a.potrf / denom, a.trsm / denom, a.syrk / denom,
                   a.copy / denom});
  }
  bench::emit(table, csv);
}

}  // namespace

int main() {
  const bench::BenchMatrix bm = bench::load_matrix(0);
  PolicyExecutor host_exec(Policy::P1);
  const FactorizationTrace host =
      bench::run_trace(bm.analysis, host_exec, false);
  PolicyExecutor basic_gpu(Policy::P3, bench::basic_gpu_options());
  const FactorizationTrace gpu =
      bench::run_trace(bm.analysis, basic_gpu, true);

  const auto host_bins = bin_by_ops_decade(host);
  const auto gpu_bins = bin_by_ops_decade(gpu);
  emit_bins("Fig. 5a — mean component seconds per call, host CPU", host_bins,
            false, "fig5_host_components.csv");
  emit_bins("Fig. 5b — mean component seconds per call, basic GPU", gpu_bins,
            false, "fig5_gpu_components.csv");
  emit_bins("Fig. 6a — fractional component timings, host CPU", host_bins,
            true, "fig6_host_fractions.csv");
  emit_bins("Fig. 6b — fractional component timings, basic GPU", gpu_bins,
            true, "fig6_gpu_fractions.csv");

  // The small/large comparison the paper calls out.
  auto mean_kernel_time = [](const std::map<int, TraceBin>& bins,
                             int decade) {
    const auto it = bins.find(decade);
    if (it == bins.end() || it->second.calls == 0) return 0.0;
    return (it->second.trsm + it->second.syrk) /
           static_cast<double>(it->second.calls);
  };
  Table cross("Fig. 5/6 companion — trsm+syrk per call, CPU vs GPU",
              {"ops decade", "CPU (s)", "GPU (s)", "GPU/CPU"});
  for (int decade = 3; decade <= 10; ++decade) {
    const double c = mean_kernel_time(host_bins, decade);
    const double g = mean_kernel_time(gpu_bins, decade);
    if (c <= 0.0 || g <= 0.0) continue;
    cross.add_row({std::string("1e") + std::to_string(decade), c, g, g / c});
  }
  bench::emit(cross, "fig5_6_crossover.csv");
  return 0;
}
