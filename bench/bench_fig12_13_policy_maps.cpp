// Figures 12 and 13 — best-policy maps over the (m, k) plane for the
// Ideal, Model, and Baseline hybrids, at two zoom levels (0..1000 and
// 0..10000). Rendered as ASCII label maps (1/2/3/4 = policy; bottom-left =
// small m,k) and CSV grids. Paper structure: P1 in the low corner, P2 for
// moderate k, P3 in the bulk, P4 for large k.
#include "common.hpp"

#include <sstream>

#include "autotune/trainer.hpp"
#include "support/binning.hpp"

using namespace mfgpu;

namespace {

using Chooser = std::function<Policy(index_t, index_t)>;

std::string render_map(index_t extent, index_t bin, const Chooser& choose,
                       const std::string& csv_name) {
  const index_t bins = extent / bin;
  std::ostringstream csv;
  csv << "k\\m";
  for (index_t bx = 0; bx < bins; ++bx) csv << ',' << bx * bin + bin / 2;
  csv << '\n';
  std::vector<std::string> rows;
  for (index_t by = 0; by < bins; ++by) {
    const index_t k = by * bin + bin / 2;
    csv << k;
    std::string row;
    for (index_t bx = 0; bx < bins; ++bx) {
      const index_t m = bx * bin + bin / 2;
      const int p = static_cast<int>(choose(m, k));
      csv << ',' << p;
      row += static_cast<char>('0' + p);
    }
    csv << '\n';
    rows.push_back(row);
  }
  bench::emit_text(csv.str(), csv_name);
  std::ostringstream ascii;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    ascii << '|' << *it << "|\n";
  }
  ascii << '+' << std::string(static_cast<std::size_t>(bins), '-')
        << "+ (m ->)\n";
  return ascii.str();
}

}  // namespace

int main() {
  PolicyTimer timer;

  // Training data: the union of observed call dims over the testset plus a
  // log grid for coverage of the full analysis range.
  std::vector<std::pair<index_t, index_t>> dims;
  for (const auto& bm : bench::load_testset()) {
    const auto d = dims_from_symbolic(bm.analysis.symbolic);
    dims.insert(dims.end(), d.begin(), d.end());
  }
  const PolicyDataset dataset = build_dataset(dims, timer);
  const TrainedPolicyModel model = train_expected_time(dataset);
  const BaselineThresholds thresholds = paper_thresholds();

  const Chooser ideal = [&timer](index_t m, index_t k) {
    return timer.best_policy(FuCall{.m = m, .k = k});
  };
  const Chooser model_choose = [&model](index_t m, index_t k) {
    return model.choose(m, k);
  };
  const Chooser baseline = [&thresholds](index_t m, index_t k) {
    return baseline_choice(thresholds, FuCall{.m = m, .k = k});
  };

  struct MapSpec {
    const char* title;
    index_t extent, bin;
    const Chooser* chooser;
    const char* csv;
  };
  const MapSpec specs[] = {
      {"Fig. 12(a) ideal hybrid, 0..1000", 1000, 25, &ideal, "fig12a_ideal.csv"},
      {"Fig. 12(b) model hybrid, 0..1000", 1000, 25, &model_choose,
       "fig12b_model.csv"},
      {"Fig. 12(c) baseline hybrid, 0..1000", 1000, 25, &baseline,
       "fig12c_baseline.csv"},
      {"Fig. 13(a) ideal hybrid, 0..10000", 10000, 250, &ideal,
       "fig13a_ideal.csv"},
      {"Fig. 13(b) model hybrid, 0..10000", 10000, 250, &model_choose,
       "fig13b_model.csv"},
      {"Fig. 13(c) baseline hybrid, 0..10000", 10000, 250, &baseline,
       "fig13c_baseline.csv"},
  };
  for (const MapSpec& spec : specs) {
    std::printf("%s (digits = policy, k increases upward):\n%s\n", spec.title,
                render_map(spec.extent, spec.bin, *spec.chooser, spec.csv)
                    .c_str());
  }

  // Agreement summary (how closely each map tracks the ideal).
  Table agreement("Fig. 12/13 — map agreement with the ideal hybrid",
                  {"range", "model match %", "baseline match %"});
  for (index_t extent : {index_t{1000}, index_t{10000}}) {
    const index_t bin = extent / 40;
    double model_hits = 0, baseline_hits = 0, cells = 0;
    for (index_t k = bin / 2; k < extent; k += bin) {
      for (index_t m = bin / 2; m < extent; m += bin) {
        const Policy best = ideal(m, k);
        model_hits += (model_choose(m, k) == best) ? 1.0 : 0.0;
        baseline_hits += (baseline(m, k) == best) ? 1.0 : 0.0;
        cells += 1.0;
      }
    }
    agreement.add_row({std::string("0..") + std::to_string(extent),
                       100.0 * model_hits / cells,
                       100.0 * baseline_hits / cells});
  }
  bench::emit(agreement, "fig12_13_agreement.csv");
  return 0;
}
