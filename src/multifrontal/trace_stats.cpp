#include "multifrontal/trace_stats.hpp"

#include <algorithm>
#include <cmath>

#include "policy/policy.hpp"

namespace mfgpu {

std::map<int, TraceBin> bin_by_ops_decade(const FactorizationTrace& trace) {
  std::map<int, TraceBin> bins;
  for (const auto& call : trace.calls) {
    const double ops = call.ops_total();
    if (ops <= 0.0) continue;
    TraceBin& bin = bins[static_cast<int>(std::floor(std::log10(ops)))];
    ++bin.calls;
    bin.potrf += call.t_potrf;
    bin.trsm += call.t_trsm;
    bin.syrk += call.t_syrk;
    bin.copy += call.t_copy;
    bin.total += call.t_total;
  }
  return bins;
}

index_t PolicyBreakdown::total_calls() const {
  index_t sum = 0;
  for (index_t c : calls) sum += c;
  return sum;
}

double PolicyBreakdown::total_time() const {
  double sum = 0.0;
  for (double t : time) sum += t;
  return sum;
}

PolicyBreakdown policy_breakdown(const FactorizationTrace& trace) {
  PolicyBreakdown breakdown;
  for (const auto& call : trace.calls) {
    MFGPU_CHECK(call.policy >= 1 && call.policy <= kMaxPolicyIndex,
                "policy_breakdown: invalid policy in trace");
    ++breakdown.calls[static_cast<std::size_t>(call.policy)];
    breakdown.time[static_cast<std::size_t>(call.policy)] += call.t_total;
  }
  return breakdown;
}

double small_call_fraction(const FactorizationTrace& trace, index_t max_m,
                           index_t max_k) {
  if (trace.calls.empty()) return 0.0;
  index_t small = 0;
  for (const auto& call : trace.calls) {
    if (call.m <= max_m && call.k <= max_k) ++small;
  }
  return static_cast<double>(small) /
         static_cast<double>(trace.calls.size());
}

Grid2D time_distribution_grid(const FactorizationTrace& trace, index_t extent,
                              index_t bin, bool subtract_copy) {
  Grid2D grid(extent, extent, bin);
  for (const auto& call : trace.calls) {
    const double t = subtract_copy
                         ? std::max(call.t_total - call.t_copy, 0.0)
                         : call.t_total;
    grid.add(call.m, call.k, t);
  }
  grid.normalize();
  return grid;
}

}  // namespace mfgpu
