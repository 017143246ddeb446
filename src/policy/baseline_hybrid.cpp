#include "policy/baseline_hybrid.hpp"

#include <algorithm>
#include <cmath>

namespace mfgpu {

BaselineThresholds paper_thresholds() { return BaselineThresholds{}; }

namespace {

/// The front shape of the threshold sweep: m = kSweepShape * k.
constexpr double kSweepShape = 2.0;

/// Find the op count at which `hi` first beats `lo` along the sweep, by
/// bisection on a log-spaced scan (the paper fits the rate-difference curve
/// and estimates its zero; a scan is equivalent at our resolution).
double find_transition(PolicyTimer& timer, Policy lo, Policy hi,
                       double ops_min, double ops_max) {
  double last_lo_wins = ops_min;
  double first_hi_wins = ops_max;
  const int steps = 160;
  for (int i = 0; i <= steps; ++i) {
    const double ops =
        ops_min * std::pow(ops_max / ops_min, static_cast<double>(i) / steps);
    // Given m = s * k: ops = k^3 (1/3 + s + s^2)  =>  k.
    const double k_real = std::cbrt(
        ops / (1.0 / 3.0 + kSweepShape + kSweepShape * kSweepShape));
    const index_t k = std::max<index_t>(1, static_cast<index_t>(k_real));
    const index_t m =
        static_cast<index_t>(kSweepShape * static_cast<double>(k));
    const FuCall call{.m = m, .k = k};
    if (timer.time(hi, call) < timer.time(lo, call)) {
      first_hi_wins = std::min(first_hi_wins, ops);
    } else {
      last_lo_wins = std::max(last_lo_wins, ops);
    }
  }
  return std::sqrt(std::max(last_lo_wins, 1.0) * first_hi_wins);
}

}  // namespace

BaselineThresholds derive_thresholds(PolicyTimer& timer) {
  BaselineThresholds t;
  t.p1_to_p2 = find_transition(timer, Policy::P1, Policy::P2, 1e3, 1e9);
  t.p2_to_p3 = find_transition(timer, Policy::P2, Policy::P3, t.p1_to_p2, 1e10);
  t.p3_to_p4 = find_transition(timer, Policy::P3, Policy::P4, t.p2_to_p3, 1e12);
  return t;
}

Policy baseline_choice(const BaselineThresholds& thresholds,
                       const FuCall& call) {
  const double ops = fu_total_ops(call.m, call.k);
  if (ops < thresholds.p1_to_p2) return Policy::P1;
  if (ops < thresholds.p2_to_p3) return Policy::P2;
  if (ops < thresholds.p3_to_p4) return Policy::P3;
  return Policy::P4;
}

DispatchExecutor make_baseline_hybrid(const BaselineThresholds& thresholds,
                                      ExecutorOptions options) {
  return DispatchExecutor(
      "P_BH",
      [thresholds](const FuCall& call) {
        return baseline_choice(thresholds, call);
      },
      options);
}

}  // namespace mfgpu
