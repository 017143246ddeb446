// Per-call timing trace of a factorization. The paper's entire analysis
// (Figs. 2-8, Tables III-V) is retrospective analysis of exactly this data:
// one record per factor-update call with its dimensions and component times.
// It is also the only record of a call: the profiler's policy and fault
// audits (obs/profile.hpp) are computed from these records.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

/// Component timings of one factor-update call (simulated seconds).
struct FuCallRecord {
  index_t snode = -1;
  index_t m = 0;  ///< update-matrix order
  index_t k = 0;  ///< supernode width (pivot block order)
  int policy = 0; ///< Policy that executed the call (1..5)
  /// Fronts aggregated into the dispatch that ran this call (1 = the
  /// per-front path; > 1 only under Policy::Batched). Component times are
  /// this call's share of the aggregated dispatch.
  int batch = 1;

  double t_potrf = 0.0;
  double t_trsm = 0.0;
  double t_syrk = 0.0;
  double t_copy = 0.0;   ///< host-visible transfer time (sync + waits)
  double t_total = 0.0;  ///< wall (host-clock) duration of the whole call

  /// Fault tolerance (policy/executors.cpp): device faults this call
  /// survived and whether it ended on the host P1 fallback path. t_total
  /// includes the wasted time of the failed on-device attempts.
  int faults = 0;
  bool fell_back = false;
  /// A hybrid dispatcher (DispatchExecutor) chose this call's policy; the
  /// profiler's policy audit covers exactly these calls.
  bool dispatched = false;
  /// Detected device faults charged to this call, per gpusim FaultKind:
  /// the `faults` it survived plus, on the first member of an aborted
  /// batch, the abort itself.
  std::array<std::uint8_t, 5> fault_kinds{};
  /// Simulated device time the charged faults threw away.
  double fault_wasted_seconds = 0.0;
  /// The dispatcher's predicted call time in seconds (the ideal hybrid's
  /// dry-run oracle supplies one); < 0 = no prediction.
  double predicted_seconds = -1.0;

  /// Serving request this call executed for (obs::current_request_id() at
  /// record time; 0 outside the serving layer). Stamped uniformly for every
  /// dispatch path — per-front and aggregated execute_batch alike — so the
  /// per-request causal tooling can join trace rows to request trees.
  std::uint64_t request_id = 0;

  /// Paper's asymptotic op counts (Section IV-B).
  double ops_potrf() const;
  double ops_trsm() const;
  double ops_syrk() const;
  double ops_total() const {
    return ops_potrf() + ops_trsm() + ops_syrk();
  }
};

struct FactorizationTrace {
  std::vector<FuCallRecord> calls;
  double total_time = 0.0;     ///< end-to-end factorization (host clock)
  double assembly_time = 0.0;  ///< extend-add + scatter/gather
  double fu_time = 0.0;        ///< sum of per-call totals

  /// Record one finished F-U call: appends it, accumulates fu_time, and
  /// publishes the per-kernel time/flop/policy counters to the obs metrics
  /// registry (the trace is one consumer of that shared emission point).
  void record_call(const FuCallRecord& record);

  void clear();
  /// Aggregate totals for each component.
  double total_potrf() const;
  double total_trsm() const;
  double total_syrk() const;
  double total_copy() const;

  void write_csv(std::ostream& os) const;
};

}  // namespace mfgpu
