// Training the policy classifier.
//
// The paper's key departure from standard classification (Section VI-B):
// instead of penalizing every misprediction equally, minimize the EXPECTED
// COMPUTATION TIME over the empirical data (Eq. 3):
//     theta* = argmin_theta sum_i sum_j p_theta(y = C_j | x_i) T_ij
// so errors on large calls, or errors that pick a badly sub-optimal policy,
// cost proportionally more. We solve the (smooth, unconstrained) problem
// with Adam; a plain cross-entropy trainer on argmin labels is provided for
// the cost-sensitivity ablation (the approach of Dongarra et al. / Xu et
// al. that the paper argues against).
#pragma once

#include "autotune/dataset.hpp"
#include "autotune/logistic_model.hpp"
#include "policy/policy.hpp"

namespace mfgpu {

/// A trained policy predictor: scaler + classifier + the glue to Policy.
/// 4-class models choose among the per-front policies P1..P4; 5-class
/// models (trained on a dataset with the batched column) may also return
/// Policy::Batched (class index 4 -> policy_from_index(5)).
struct TrainedPolicyModel {
  FeatureScaler scaler;
  MultinomialLogistic model{kNumFeatures, 4};

  Policy choose(index_t m, index_t k) const;
  /// Expected time of the model's soft prediction on one example.
  double expected_time(const PolicyDataset& ds, std::size_t i) const;
};

/// Objective value (mean expected time, seconds) of a model on a dataset.
double expected_time_objective(const TrainedPolicyModel& model,
                               const PolicyDataset& ds);

/// The paper's trainer: minimize expected computation time.
TrainedPolicyModel train_expected_time(const PolicyDataset& ds);

/// Ablation trainer: standard 0/1 cross-entropy on the argmin labels.
TrainedPolicyModel train_cross_entropy(const PolicyDataset& ds);

}  // namespace mfgpu
