// Figure 2(a-c) — distribution of factor-update computation time across an
// (m, k) grid with 500x500 bins, for (a) the host CPU implementation,
// (b) the basic GPU implementation including copy time, and (c) the basic
// GPU implementation excluding copy time. Also verifies the Section IV-A
// claim that ~97% of the calls have k <= 500 and m <= 1000.
#include "common.hpp"

#include <sstream>

#include "multifrontal/trace_stats.hpp"

using namespace mfgpu;

namespace {

std::string render(const FactorizationTrace& trace, bool subtract_copy,
                   const std::string& csv_name) {
  const Grid2D grid = time_distribution_grid(trace, 10000, 500, subtract_copy);
  std::ostringstream csv;
  grid.write_csv(csv);
  bench::emit_text(csv.str(), csv_name);
  std::ostringstream ascii;
  grid.print_ascii(ascii);
  return ascii.str();
}

}  // namespace

int main() {
  const bench::BenchMatrix bm = bench::load_matrix(0);  // audikw1_s

  PolicyExecutor host_exec(Policy::P1);
  const FactorizationTrace host =
      bench::run_trace(bm.analysis, host_exec, false);
  PolicyExecutor basic_gpu(Policy::P3, bench::basic_gpu_options());
  const FactorizationTrace gpu =
      bench::run_trace(bm.analysis, basic_gpu, true);

  // Section IV-A headline statistic.
  Table stats("Fig. 2 companion — call-size distribution (audikw1_s)",
              {"quantity", "value", "paper"});
  stats.add_row({std::string("F-U calls"),
                 static_cast<index_t>(host.calls.size()), std::string("-")});
  stats.add_row({std::string("% calls with k<=500, m<=1000"),
                 100.0 * small_call_fraction(host, 1000, 500),
                 std::string("~97%")});
  bench::emit(stats, "fig2_call_stats.csv");

  std::printf("(a) fraction of time, host CPU (m ->, k ^):\n%s\n",
              render(host, false, "fig2a_host.csv").c_str());
  std::printf("(b) fraction of time, basic GPU incl. copies:\n%s\n",
              render(gpu, false, "fig2b_gpu_with_copy.csv").c_str());
  std::printf("(c) fraction of time, basic GPU excl. copies:\n%s\n",
              render(gpu, true, "fig2c_gpu_without_copy.csv").c_str());
  return 0;
}
