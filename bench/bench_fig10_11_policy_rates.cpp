// Figures 10 and 11 — effective flop rate of the four policies (Fig. 10)
// and their speedup over the host implementation (Fig. 11) as functions of
// the total op count of a factor-update call, plus the measured points
// where the simulator's winners change, next to the paper's transitions
// that every P_BH dispatches: P1 -> P2 at ~2e6 ops, P2 -> P3 at ~1.5e7,
// P3 -> P4 at ~9e10.
#include "common.hpp"

#include <cmath>

#include "policy/baseline_hybrid.hpp"

using namespace mfgpu;

int main() {
  PolicyTimer timer;

  Table rates("Fig. 10 — policy flop rate vs total ops (m = 2k sweep)",
              {"ops", "P1 F/s", "P2 F/s", "P3 F/s", "P4 F/s"});
  Table speedups("Fig. 11 — policy speedup over host vs total ops",
                 {"ops", "P2", "P3", "P4", "best"});
  for (double target = 1e4; target <= 3e11; target *= std::sqrt(10.0)) {
    // m = 2k: total ops = (1/3 + 2 + 4) k^3.
    const index_t k = std::max<index_t>(
        1, static_cast<index_t>(std::cbrt(target / (1.0 / 3.0 + 2.0 + 4.0))));
    const index_t m = 2 * k;
    const double ops = fu_total_ops(m, k);
    const double t1 = timer.time(Policy::P1, FuCall{.m = m, .k = k});
    const double t2 = timer.time(Policy::P2, FuCall{.m = m, .k = k});
    const double t3 = timer.time(Policy::P3, FuCall{.m = m, .k = k});
    const double t4 = timer.time(Policy::P4, FuCall{.m = m, .k = k});
    rates.add_row({ops, ops / t1, ops / t2, ops / t3, ops / t4});
    const double best = std::min({t1, t2, t3, t4});
    speedups.add_row({ops, t1 / t2, t1 / t3, t1 / t4, t1 / best});
  }
  bench::emit(rates, "fig10_policy_rates.csv");
  bench::emit(speedups, "fig11_policy_speedups.csv");

  const BaselineThresholds derived = derive_thresholds(timer);
  Table transitions("Fig. 10/11 — baseline hybrid transition points",
                    {"transition", "derived ops", "paper ops"});
  transitions.add_row({std::string("P1 -> P2"), derived.p1_to_p2, 2.0e6});
  transitions.add_row({std::string("P2 -> P3"), derived.p2_to_p3, 1.5e7});
  transitions.add_row({std::string("P3 -> P4"), derived.p3_to_p4, 9.0e10});
  bench::emit(transitions, "fig10_11_transitions.csv");

  // Dry-run timings are fully deterministic: the transition points pin the
  // derived P_BH thresholds exactly, the peak best-policy speedup gates the
  // hybrid headroom at the top of the sweep.
  obs::BenchRecord record = bench::make_bench_record("fig10_11_policy_rates");
  const auto exact = mfgpu::obs::MetricDirection::Exact;
  record.add_metric("transition_p1_to_p2_ops", derived.p1_to_p2, exact);
  record.add_metric("transition_p2_to_p3_ops", derived.p2_to_p3, exact);
  record.add_metric("transition_p3_to_p4_ops", derived.p3_to_p4, exact);
  {
    const index_t k = 2000, m = 2 * k;
    const double t1 = timer.time(Policy::P1, FuCall{.m = m, .k = k});
    const double best =
        std::min({t1, timer.time(Policy::P2, FuCall{.m = m, .k = k}),
                  timer.time(Policy::P3, FuCall{.m = m, .k = k}), timer.time(Policy::P4, FuCall{.m = m, .k = k})});
    record.add_metric("best_speedup_k2000", t1 / best,
                      mfgpu::obs::MetricDirection::HigherIsBetter);
  }
  bench::emit_bench_record(record);
  return 0;
}
