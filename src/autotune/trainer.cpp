#include "autotune/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

namespace mfgpu {

Policy TrainedPolicyModel::choose(index_t m, index_t k) const {
  const FeatureVector x = scaler(m, k);
  return policy_from_index(model.predict(x) + 1);
}

double TrainedPolicyModel::expected_time(const PolicyDataset& ds,
                                         std::size_t i) const {
  const FeatureVector x = scaler(ds.ms[i], ds.ks[i]);
  const std::vector<double> p = model.probabilities(x);
  double expected = 0.0;
  for (int j = 0; j < model.num_classes(); ++j) {
    expected += p[static_cast<std::size_t>(j)] * ds.time(i, j);
  }
  return expected;
}

double expected_time_objective(const TrainedPolicyModel& model,
                               const PolicyDataset& ds) {
  double total = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    total += model.expected_time(ds, i);
  }
  return total / static_cast<double>(ds.size());
}

namespace {

// Adam hyper-parameters of both trainers.
constexpr int kMaxIterations = 4000;
constexpr double kLearningRate = 0.08;
constexpr double kL2Penalty = 1e-4;
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
/// Stop when the relative objective improvement over 50 iterations is below
/// this.
constexpr double kTolerance = 1e-8;
/// Iterations of the cross-entropy warm start of train_expected_time.
constexpr int kWarmStartIterations = std::max(500, kMaxIterations / 4);

using ScoreGradient =
    std::function<void(const PolicyDataset&, std::size_t,
                       const std::vector<double>&, std::vector<double>&)>;

/// Shared Adam loop over the classifier weights. `gradient(features, i, p)`
/// returns the per-class dL/dscore for example i with probabilities p.
TrainedPolicyModel train_common(
    const PolicyDataset& ds, int max_iterations,
    const ScoreGradient& score_gradient,
    const TrainedPolicyModel* warm_start = nullptr) {
  MFGPU_CHECK(ds.size() > 0, "train: empty dataset");
  TrainedPolicyModel result;
  result.model = MultinomialLogistic(kNumFeatures, ds.num_policies);
  if (warm_start != nullptr) {
    MFGPU_CHECK(warm_start->model.num_classes() == ds.num_policies,
                "train: warm start class count mismatch");
    result.model = warm_start->model;
  }

  std::vector<FeatureVector> raw;
  raw.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    raw.push_back(raw_features(ds.ms[i], ds.ks[i]));
  }
  result.scaler = FeatureScaler::fit(raw);
  std::vector<FeatureVector> features;
  features.reserve(ds.size());
  for (const auto& r : raw) features.push_back(result.scaler.apply(r));

  MultinomialLogistic& model = result.model;
  const int d = model.num_features();
  const int r = model.num_classes();
  const std::size_t num_weights = static_cast<std::size_t>((d + 1) * r);
  std::vector<double> grad(num_weights), m1(num_weights, 0.0),
      m2(num_weights, 0.0);
  std::vector<double> dscore(static_cast<std::size_t>(r));

  const double inv_n = 1.0 / static_cast<double>(ds.size());
  double previous_objective = std::numeric_limits<double>::infinity();
  for (int iter = 1; iter <= max_iterations; ++iter) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double objective = 0.0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const auto& x = features[i];
      const std::vector<double> p = model.probabilities(x);
      score_gradient(ds, i, p, dscore);
      for (int j = 0; j < r; ++j) {
        const double g = dscore[static_cast<std::size_t>(j)] * inv_n;
        const std::size_t base = static_cast<std::size_t>(j * (d + 1));
        for (int f = 0; f < d; ++f) {
          grad[base + static_cast<std::size_t>(f)] +=
              g * x[static_cast<std::size_t>(f)];
        }
        grad[base + static_cast<std::size_t>(d)] += g;  // bias
        objective += p[static_cast<std::size_t>(j)] * ds.time(i, j) * inv_n;
      }
    }
    // L2 regularization (not on biases).
    auto weights = model.raw_weights();
    for (int j = 0; j < r; ++j) {
      const std::size_t base = static_cast<std::size_t>(j * (d + 1));
      for (int f = 0; f < d; ++f) {
        grad[base + static_cast<std::size_t>(f)] +=
            kL2Penalty * weights[base + static_cast<std::size_t>(f)];
      }
    }
    // Adam step.
    const double b1t = 1.0 - std::pow(kAdamBeta1, iter);
    const double b2t = 1.0 - std::pow(kAdamBeta2, iter);
    for (std::size_t w = 0; w < num_weights; ++w) {
      m1[w] = kAdamBeta1 * m1[w] + (1.0 - kAdamBeta1) * grad[w];
      m2[w] = kAdamBeta2 * m2[w] +
              (1.0 - kAdamBeta2) * grad[w] * grad[w];
      const double mhat = m1[w] / b1t;
      const double vhat = m2[w] / b2t;
      weights[w] -= kLearningRate * mhat / (std::sqrt(vhat) + 1e-9);
    }
    if (iter % 50 == 0) {
      if (previous_objective - objective <
          kTolerance * std::abs(previous_objective)) {
        break;
      }
      previous_objective = objective;
    }
  }
  return result;
}

/// dL/ds_j of the 0/1 cross-entropy on the argmin label.
void cross_entropy_gradient(const PolicyDataset& data, std::size_t i,
                            const std::vector<double>& p,
                            std::vector<double>& dscore) {
  const int label = data.best_policy_index(i);
  for (int j = 0; j < data.num_policies; ++j) {
    dscore[static_cast<std::size_t>(j)] =
        p[static_cast<std::size_t>(j)] - (j == label ? 1.0 : 0.0);
  }
}

}  // namespace

TrainedPolicyModel train_expected_time(const PolicyDataset& ds) {
  // Normalize times so the gradient scale is data-independent; the RELATIVE
  // weighting across examples (big calls matter more) is preserved, which
  // is exactly the cost-sensitivity the paper wants.
  double mean_time = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (int j = 0; j < ds.num_policies; ++j) mean_time += ds.time(i, j);
  }
  mean_time /= static_cast<double>(ds.size()) *
               static_cast<double>(ds.num_policies);
  const double scale = (mean_time > 0.0) ? 1.0 / mean_time : 1.0;

  // The expected-time objective is smooth but not convex in theta; from a
  // cold start Adam can settle on a poor boundary layout. Warm-start from
  // the (convex) cross-entropy solution — calibrate the boundaries first,
  // then shift them cost-sensitively.
  const TrainedPolicyModel warm =
      train_common(ds, kWarmStartIterations, cross_entropy_gradient);

  return train_common(
      ds, kMaxIterations,
      [scale](const PolicyDataset& data, std::size_t i,
              const std::vector<double>& p, std::vector<double>& dscore) {
        // dL/ds_j = p_j (T_j - sum_l p_l T_l), with T in normalized units.
        double expected = 0.0;
        for (int l = 0; l < data.num_policies; ++l) {
          expected += p[static_cast<std::size_t>(l)] * data.time(i, l) * scale;
        }
        for (int j = 0; j < data.num_policies; ++j) {
          dscore[static_cast<std::size_t>(j)] =
              p[static_cast<std::size_t>(j)] *
              (data.time(i, j) * scale - expected);
        }
      },
      &warm);
}

TrainedPolicyModel train_cross_entropy(const PolicyDataset& ds) {
  return train_common(ds, kMaxIterations, cross_entropy_gradient);
}

}  // namespace mfgpu
