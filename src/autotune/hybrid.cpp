#include "autotune/hybrid.hpp"

#include <map>
#include <utility>

namespace mfgpu {

DispatchExecutor make_ideal_hybrid(ExecutorOptions options) {
  // One memoized dry-run argmin per (m, k), shared between the chooser and
  // the predictor that fills FuCallRecord::predicted_seconds, so each
  // unique shape is simulated once.
  auto timer = std::make_shared<PolicyTimer>(options);
  struct BestCall {
    Policy policy = Policy::P1;
    double seconds = 0.0;
  };
  auto cache =
      std::make_shared<std::map<std::pair<index_t, index_t>, BestCall>>();
  auto best_of = [timer, cache](const FuCall& call) -> const BestCall& {
    const auto key = std::make_pair(call.m, call.k);
    auto it = cache->find(key);
    if (it == cache->end()) {
      BestCall best;
      best.policy = timer->best_policy(call);
      best.seconds = timer->time(best.policy, call);
      it = cache->emplace(key, best).first;
    }
    return it->second;
  };
  DispatchExecutor executor(
      "P_IH",
      [best_of](const FuCall& call) { return best_of(call).policy; },
      options);
  executor.set_predictor([best_of](const FuCall& call, Policy chosen) {
    const BestCall& best = best_of(call);
    // The dispatcher always executes its own argmin; if the device was
    // absent and P1 was forced instead, the oracle's prediction does not
    // apply to what ran.
    return chosen == best.policy ? best.seconds : -1.0;
  });
  return executor;
}

DispatchExecutor make_model_hybrid(const TrainedPolicyModel& model,
                                   ExecutorOptions options) {
  // Copy the (small) model into the closure so the executor is
  // self-contained.
  auto owned = std::make_shared<TrainedPolicyModel>(model);
  return DispatchExecutor(
      "P_MH",
      [owned](const FuCall& call) { return owned->choose(call.m, call.k); },
      options);
}

HybridEvaluation evaluate_hybrids(const PolicyDataset& ds,
                                  const TrainedPolicyModel& model,
                                  const BaselineThresholds& thresholds) {
  MFGPU_CHECK(ds.size() > 0, "evaluate_hybrids: empty dataset");
  HybridEvaluation eval;
  std::size_t model_hits = 0;
  std::size_t baseline_hits = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const int ideal = ds.best_policy_index(i);
    const int chosen =
        static_cast<int>(model.choose(ds.ms[i], ds.ks[i])) - 1;
    const int base = static_cast<int>(baseline_choice(
                         thresholds, FuCall{.m = ds.ms[i], .k = ds.ks[i]})) -
                     1;
    eval.total_ideal += ds.time(i, ideal);
    eval.total_model += ds.time(i, chosen);
    eval.total_baseline += ds.time(i, base);
    if (chosen == ideal) ++model_hits;
    if (base == ideal) ++baseline_hits;
  }
  eval.model_accuracy =
      static_cast<double>(model_hits) / static_cast<double>(ds.size());
  eval.baseline_accuracy =
      static_cast<double>(baseline_hits) / static_cast<double>(ds.size());
  return eval;
}

}  // namespace mfgpu
