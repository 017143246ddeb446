// The three hybrid dispatchers the paper compares (Section VI-C):
//   P_IH — ideal hybrid: retrospective argmin over the observed timings
//   P_MH — model hybrid: the trained classifier
//   P_BH — baseline hybrid: the paper's op-count thresholds
//          (paper_thresholds(), policy/baseline_hybrid.hpp)
// plus per-call evaluation metrics (regret vs ideal, accuracy).
#pragma once

#include <memory>

#include "autotune/trainer.hpp"
#include "policy/baseline_hybrid.hpp"
#include "policy/executors.hpp"

namespace mfgpu {

/// Ideal-hybrid dispatcher: memoized dry-run argmin per (m, k). It owns
/// its oracle, a PolicyTimer priced under the same `options` it executes
/// with, so the executor is self-contained (one per worker: the timer is not
/// thread-safe).
DispatchExecutor make_ideal_hybrid(ExecutorOptions options = {});

/// Model-hybrid dispatcher around a trained classifier (copied in).
DispatchExecutor make_model_hybrid(const TrainedPolicyModel& model,
                                   ExecutorOptions options = {});

/// Per-call comparison of the three hybrids on a dataset.
struct HybridEvaluation {
  double total_ideal = 0.0;     ///< sum of per-call best times
  double total_model = 0.0;     ///< sum of times of the model's choices
  double total_baseline = 0.0;  ///< sum of times of the baseline's choices
  double model_accuracy = 0.0;  ///< fraction of calls where model == ideal
  double baseline_accuracy = 0.0;

  /// total_model / total_ideal - 1 (the paper reports ~2%).
  double model_regret() const { return total_model / total_ideal - 1.0; }
  double baseline_regret() const { return total_baseline / total_ideal - 1.0; }
};

HybridEvaluation evaluate_hybrids(const PolicyDataset& ds,
                                  const TrainedPolicyModel& model,
                                  const BaselineThresholds& thresholds);

}  // namespace mfgpu
