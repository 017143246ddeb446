// The baseline hybrid P_BH (paper Section V-B1): choose the policy purely
// from the total op count of the call, using the transition points read off
// the policy flop-rate curves (Figs. 10-11). The paper's measured
// thresholds: P1 below 2e6 ops, P2 up to 1.5e7, P3 up to 9e10, P4 above.
#pragma once

#include "policy/executors.hpp"
#include "policy/policy.hpp"

namespace mfgpu {

struct BaselineThresholds {
  double p1_to_p2 = 2.0e6;
  double p2_to_p3 = 1.5e7;
  double p3_to_p4 = 9.0e10;
};

/// The paper's published thresholds: the one set every P_BH dispatches
/// (the Solver, Table VII, the Fig. 12-14 maps).
BaselineThresholds paper_thresholds();

/// Measure where this simulator's per-call winners change, by sweeping op
/// counts along a representative front shape (m = 2k) — the procedure the
/// paper used to read its thresholds off Figs. 10-11. A measurement only
/// (Fig. 10/11 reports it); every P_BH dispatches paper_thresholds().
BaselineThresholds derive_thresholds(PolicyTimer& timer);

Policy baseline_choice(const BaselineThresholds& thresholds,
                       const FuCall& call);

/// A DispatchExecutor wired to the baseline rule.
DispatchExecutor make_baseline_hybrid(const BaselineThresholds& thresholds,
                                      ExecutorOptions options = {});

}  // namespace mfgpu
