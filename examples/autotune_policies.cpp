// Auto-tuning walkthrough: collect empirical factor-update timings, train
// the paper's cost-sensitive multinomial-logistic policy model (Eq. 3),
// inspect the learned policy map, and compare Ideal / Model / Baseline
// hybrids end-to-end — the core of the paper's Section VI.
#include <cstdio>

#include "autotune/hybrid.hpp"
#include "autotune/trainer.hpp"
#include "multifrontal/factorization.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  // Workload: one mid-size structural model.
  Rng rng(7);
  const GridProblem model = make_elasticity_3d(16, 16, 12, 3, rng);
  const Analysis analysis =
      analyze(model.matrix, nested_dissection(model.coords));

  // 1. Empirical data: every policy timed on every observed call shape.
  PolicyTimer timer;
  const auto dims = dims_from_symbolic(analysis.symbolic);
  const PolicyDataset dataset = build_dataset(dims, timer);
  std::printf("collected %zu (m, k) call shapes x 4 policies\n",
              dataset.size());

  // 2. Train the classifier by minimizing expected computation time.
  const TrainedPolicyModel model_hybrid = train_expected_time(dataset);
  const BaselineThresholds thresholds = paper_thresholds();
  const HybridEvaluation eval =
      evaluate_hybrids(dataset, model_hybrid, thresholds);
  std::printf(
      "per-call evaluation: model regret %.2f%% vs ideal (paper: ~2%%), "
      "baseline regret %.2f%%, model accuracy %.0f%%\n",
      100.0 * eval.model_regret(), 100.0 * eval.baseline_regret(),
      100.0 * eval.model_accuracy);

  // 3. The learned policy map (cf. paper Fig. 12(b)).
  std::printf("\nlearned policy per (m, k)  [columns m = 50..950, rows k "
              "decreasing]\n");
  for (index_t k = 950; k >= 50; k -= 150) {
    std::printf("k=%4lld: ", static_cast<long long>(k));
    for (index_t m = 50; m <= 950; m += 100) {
      std::printf("%s ", policy_name(model_hybrid.choose(m, k)));
    }
    std::printf("\n");
  }

  // 4. End-to-end comparison on the full factorization (virtual time).
  auto run = [&](FuExecutor& exec, bool gpu) {
    FactorContext ctx;
    ctx.numeric = false;
    Device::Options dry;
    dry.numeric = false;
    Device device(dry);
    if (gpu) ctx.device = &device;
    FactorizeOptions opt;
    opt.store_factor = false;
    return factorize(analysis, exec, ctx, opt).trace.total_time;
  };
  PolicyExecutor p1(Policy::P1);
  DispatchExecutor ideal = make_ideal_hybrid();
  DispatchExecutor model_exec = make_model_hybrid(model_hybrid);
  DispatchExecutor baseline = make_baseline_hybrid(thresholds);
  const double t1 = run(p1, false);
  const double ti = run(ideal, true);
  const double tm = run(model_exec, true);
  const double tb = run(baseline, true);
  std::printf(
      "\nend-to-end speedup vs serial: ideal %.2fx, model %.2fx, baseline "
      "%.2fx\n",
      t1 / ti, t1 / tm, t1 / tb);
  std::printf("model within %.1f%% of the ideal hybrid\n",
              100.0 * (tm / ti - 1.0));
  return 0;
}
