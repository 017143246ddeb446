// Figure 14 — speedup of the Ideal / Model / Baseline hybrids relative to
// the host CPU implementation over the (m, k) plane (250-wide bins in the
// paper; we use 250 over 0..10000). Paper shape: ~1x at small fronts
// rising to 12-13x at the largest.
#include "common.hpp"

#include <sstream>

#include "autotune/trainer.hpp"
#include "support/binning.hpp"

using namespace mfgpu;

namespace {

using Chooser = std::function<Policy(index_t, index_t)>;

std::string render_speedup_map(PolicyTimer& timer, const Chooser& choose,
                               const std::string& csv_name,
                               double& out_max_speedup) {
  const index_t extent = 10000, bin = 250, cells = extent / bin;
  Grid2D grid(extent, extent, bin);
  out_max_speedup = 0.0;
  for (index_t by = 0; by < cells; ++by) {
    for (index_t bx = 0; bx < cells; ++bx) {
      const index_t m = bx * bin + bin / 2;
      const index_t k = by * bin + bin / 2;
      const double t1 = timer.time(Policy::P1, FuCall{.m = m, .k = k});
      const double tc = timer.time(choose(m, k), FuCall{.m = m, .k = k});
      const double speedup = t1 / tc;
      grid.add(m, k, speedup);
      out_max_speedup = std::max(out_max_speedup, speedup);
    }
  }
  std::ostringstream csv;
  grid.write_csv(csv, /*means=*/true);
  bench::emit_text(csv.str(), csv_name);
  std::ostringstream ascii;
  grid.print_ascii(ascii, /*means=*/true);
  return ascii.str();
}

}  // namespace

int main() {
  PolicyTimer timer;
  std::vector<std::pair<index_t, index_t>> dims;
  for (const auto& bm : bench::load_testset()) {
    const auto d = dims_from_symbolic(bm.analysis.symbolic);
    dims.insert(dims.end(), d.begin(), d.end());
  }
  const PolicyDataset dataset = build_dataset(dims, timer);
  const TrainedPolicyModel model = train_expected_time(dataset);
  const BaselineThresholds thresholds = paper_thresholds();

  const Chooser ideal = [&](index_t m, index_t k) {
    return timer.best_policy(FuCall{.m = m, .k = k});
  };
  const Chooser model_choose = [&](index_t m, index_t k) {
    return model.choose(m, k);
  };
  const Chooser baseline = [&](index_t m, index_t k) {
    return baseline_choice(thresholds, FuCall{.m = m, .k = k});
  };

  Table summary("Fig. 14 — hybrid speedup maps over (m, k), 250-bins",
                {"hybrid", "max speedup", "paper max"});
  struct Spec {
    const char* name;
    const Chooser* chooser;
    const char* csv;
  };
  const Spec specs[] = {{"ideal", &ideal, "fig14a_ideal_speedup.csv"},
                        {"model", &model_choose, "fig14b_model_speedup.csv"},
                        {"baseline", &baseline, "fig14c_baseline_speedup.csv"}};
  for (const Spec& spec : specs) {
    double max_speedup = 0.0;
    const std::string ascii =
        render_speedup_map(timer, *spec.chooser, spec.csv, max_speedup);
    std::printf("Fig. 14 %s hybrid speedup (density ~ speedup):\n%s\n",
                spec.name, ascii.c_str());
    summary.add_row({std::string(spec.name), max_speedup,
                     std::string("12-13x")});
  }
  bench::emit(summary, "fig14_summary.csv");
  return 0;
}
