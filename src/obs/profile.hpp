// Factorization profiler: post-run aggregation of the observability layer's
// raw data (spans, metrics, the per-call trace, pool statistics) into one
// report — the in-process counterpart of the paper's retrospective analysis.
//
// The report contains
//   - a per-phase wall-time breakdown (ordering / symbolic / numeric /
//     solve / model training) computed from the recorded spans,
//   - per-worker utilization, idle and steal statistics from the parallel
//     numeric phase's PoolRunStats,
//   - per-etree-level and (m, k)-binned factor-update time from the
//     FactorizationTrace (support/binning's Grid2D, the paper's Fig. 2/14
//     axes: x = supernode width k, y = update order m),
//   - a policy-decision audit: every dispatched call in the trace replayed
//     against a dry-run oracle to compute per-call regret vs the
//     retrospective ideal P_IH and the decision-agreement rate (Figs. 12-13
//     methodology), plus the fault audit from the faults charged to calls.
//
// Only the phase breakdown reads global state: build_profile_report()
// snapshots the global TraceSession, so it must run while the pipeline is
// quiescent and before the enclosing ObsScope finishes (finish() clears
// it). Every other section comes from the caller's inputs, so it describes
// exactly that factorization and fills in with obs recording off.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "multifrontal/factorization.hpp"
#include "multifrontal/trace.hpp"
#include "policy/executors.hpp"
#include "sched/thread_pool.hpp"
#include "support/binning.hpp"
#include "support/error.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu::obs {

/// One pipeline phase's aggregated span time.
struct PhaseTime {
  std::string name;
  double wall_seconds = 0.0;  ///< host wall clock, from recorded spans
  /// Simulated duration where the phase ran under a SimClock (numeric
  /// phase); < 0 = phase has no simulated-time component.
  double sim_seconds = -1.0;
};

/// One pool worker's run statistics (numeric phase).
struct WorkerProfile {
  int worker = -1;
  std::int64_t tasks = 0;
  std::int64_t steals = 0;
  std::int64_t failed_steals = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double wall_seconds = 0.0;
  double utilization = 0.0;  ///< busy / wall (0 when wall == 0)
};

/// Factor-update totals for one etree level (level 0 = roots, increasing
/// toward the leaves).
struct LevelProfile {
  index_t level = 0;
  index_t calls = 0;
  double fu_seconds = 0.0;  ///< sum of per-call t_total (simulated)
  double ops = 0.0;         ///< paper's asymptotic F-U op counts
};

/// Policy audit against the retrospective ideal P_IH: every dispatched call
/// in the trace (FuCallRecord::dispatched) is re-priced with a dry-run
/// PolicyTimer, so regret is exact under the deterministic simulation
/// (identically zero when the run itself dispatched via make_ideal_hybrid
/// with the same options).
struct PolicyAudit {
  std::int64_t decisions = 0;
  std::int64_t agreements = 0;  ///< chosen policy == PolicyTimer::best_policy
  double agreement_rate = 0.0;  ///< agreements / decisions (0 when empty)
  double chosen_seconds = 0.0;  ///< dry-run cost of the chosen policies
  double ideal_seconds = 0.0;   ///< dry-run cost of the per-call argmin P_IH
  double regret_total_seconds = 0.0;  ///< chosen - ideal, summed (>= 0)
  double regret_mean_seconds = 0.0;
  double regret_max_seconds = 0.0;
  double measured_seconds = 0.0;  ///< sum of in-run measured call times
  /// Prediction accuracy over decisions whose dispatcher supplied a
  /// predicted time (the ideal hybrid's oracle does; others do not).
  std::int64_t predicted_calls = 0;
  double prediction_abs_error_seconds = 0.0;  ///< sum |predicted - measured|
  /// Executed-policy histogram: P1..P4 plus Batched (index 4).
  std::array<std::int64_t, 5> policy_counts{};
};

/// Fault-tolerance audit from the faults charged to trace records: what
/// injected device faults cost the run — the "fault regret" is the
/// simulated device time thrown away on failed attempts, plus how the
/// dispatcher answered (on-device retry or host fallback).
struct FaultProfile {
  std::int64_t events = 0;                    ///< faults detected in-run
  std::array<std::int64_t, 5> kind_counts{};  ///< indexed by gpusim FaultKind
  std::int64_t retries = 0;     ///< answered by another on-device attempt
  std::int64_t fallbacks = 0;   ///< answered by the host P1 redo
  double wasted_seconds = 0.0;  ///< simulated device time thrown away
};

struct ProfileReport {
  /// Ordering / symbolic / train / numeric / solve (in pipeline order);
  /// phases with no recorded spans are present with zero time.
  std::vector<PhaseTime> phases;
  double phases_total_seconds = 0.0;  ///< sum over `phases`

  /// Numeric-phase pool statistics (empty for serial runs).
  std::vector<WorkerProfile> workers;
  double pool_wall_seconds = 0.0;
  std::int64_t total_steals = 0;
  std::int64_t total_failed_steals = 0;
  double pool_utilization = 0.0;  ///< sum busy / (workers * wall)

  /// Factor-update totals from the trace.
  index_t fu_calls = 0;
  double fu_seconds = 0.0;        ///< simulated, sum of call totals
  double assembly_seconds = 0.0;  ///< simulated extend-add/scatter time
  double makespan_seconds = 0.0;  ///< simulated factorization makespan

  std::vector<LevelProfile> levels;

  /// F-U seconds binned over the (m, k) plane: x = k, y = m. Every call
  /// lands in exactly one bin (out-of-range samples clamp into the last
  /// bin), so the grid's sample count equals fu_calls.
  Grid2D mk_seconds{1, 1, 1};
  index_t mk_binned_calls = 0;  ///< total samples across all bins

  /// Per-worker memory high-water marks of the numeric phase (the serial
  /// driver reports one entry; empty when the run predates the drivers'
  /// memory reporting). Memory joins the attribution story: arena peaks
  /// bound host RAM, pool peaks bound simulated device RAM and pinned
  /// staging, and charged-alloc counts expose the §V-A2 pooling win.
  std::vector<WorkerMemory> memory;
  std::int64_t arena_peak_bytes = 0;        ///< max over workers
  std::int64_t device_pool_peak_bytes = 0;  ///< sum over per-worker devices
  std::int64_t pinned_pool_peak_bytes = 0;  ///< sum over per-worker devices

  PolicyAudit audit;
  FaultProfile faults;

  /// Machine-readable dump (single JSON object).
  void write_json(std::ostream& os) const;
  /// Human-readable tables (support/table) plus an ASCII (m, k) heat map.
  void print(std::ostream& os) const;
};

struct ProfileReportInputs {
  /// Per-call factor-update trace (required for levels / bins / totals and
  /// the policy and fault audits).
  const FactorizationTrace* trace = nullptr;
  /// Supernode array the trace's snode indices refer to (for etree levels;
  /// empty = no level breakdown).
  std::span<const SupernodeInfo> supernodes;
  /// Pool statistics of the parallel numeric phase (nullptr = serial run).
  const PoolRunStats* pool_stats = nullptr;
  double pool_wall_seconds = 0.0;
  /// Executor configuration the run used — the audit's dry-run oracle must
  /// price calls under the same options to make regret meaningful.
  ExecutorOptions executor_options;
  /// Per-worker memory high-water marks (FactorizeResult::memory).
  std::span<const WorkerMemory> memory;
};

/// Builds the report from the global TraceSession snapshot plus the
/// caller-supplied trace and pool statistics. The policy audit costs one
/// simulated call per policy per unique (m, k). When obs recording
/// is enabled, also publishes the headline numbers as `profile.*` /
/// `policy.*` gauges in the global MetricsRegistry so they appear in the
/// exported metrics files.
ProfileReport build_profile_report(const ProfileReportInputs& inputs);

}  // namespace mfgpu::obs
