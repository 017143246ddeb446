// Critical-path causal analysis and what-if replay over a recorded schedule
// (obs/schedule_record.hpp) — the analysis half of the flight recorder.
//
// Three entry points, all operating purely on the record (no numeric
// rerun):
//
//   1. replay_exact(record, knobs): refolds every recorded primitive clock
//      and stream operation in recorded per-lane order, with cross-task join
//      targets RECOMPUTED from the children's replayed ready times and every
//      absolute operand translated through an incrementally built
//      live-time -> replay-time dictionary. With identity knobs the
//      arithmetic is operation-for-operation the live simulator's, so the
//      replayed makespan equals the recorded one BITWISE. With per-class
//      duration scales it re-simulates the same DAG under a faster/slower
//      GPU, PCIe link, or host — overlap effects (a faster host exposing a
//      previously hidden transfer) fall out of the stream refold instead of
//      being approximated.
//
//   2. analyze_critical_path(record): walks the makespan lane backwards,
//      attributing every recorded second to a cost class (host compute,
//      assembly, GPU kernels, transfers, allocation) and jumping through
//      binding dependency joins onto the producing lane. The attribution
//      telescopes: the per-class seconds sum to the makespan exactly. Also
//      computes the task spine of the critical path, per-policy attribution
//      of on-path executor time, and CPM slack per work task. The live
//      clocks it walks come from replay_exact's own traversal.
//
//   3. whatif_replay(record, knobs): counterfactual prediction under rate
//      knobs through replay_exact. Structural questions (worker count,
//      policy, batching) are answered by rerunning the factorization with
//      the changed configuration, e.g. factorize_cluster on more
//      shared-memory nodes. bench/bench_whatif_accuracy.cpp scores every
//      rate knob against a live rerun (<= 2% makespan error gate).
//
// Assumption shared by all three: the recorder was attached to quiescent
// devices (fresh streams), which the drivers guarantee by attaching before
// executor prepare. Streams whose ready time predates the recording would
// replay from zero instead.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/schedule_record.hpp"

namespace mfgpu::obs {

/// Outcome of one exact event replay.
struct ReplayResult {
  double makespan = 0.0;            ///< max replayed lane-final time
  std::vector<double> lane_final;   ///< per lane
  std::vector<double> update_ready; ///< per snode, replayed ready time
  /// The live makespan re-folded from the recorded operands (independent of
  /// the knobs) — equals record.makespan when the record is consistent.
  double live_makespan = 0.0;
};

/// Counterfactual rate knobs for replay_exact and whatif_replay. A value f
/// scales the RESOURCE speed: durations of that class are divided by f
/// (f = 2 -> twice as fast). Defaults leave everything as recorded (the
/// null counterfactual). Assembly is deliberately not scalable: the
/// simulator's host assembly rate is a fixed constant, so a live rerun
/// cannot scale it either and the accuracy bench compares like with like.
struct WhatIfKnobs {
  double gpu_scale = 1.0;       ///< GPU kernel durations, compute-stream stalls
  /// Copies, enqueue overheads, copy-stream stalls, and pool growth
  /// latencies.
  double transfer_scale = 1.0;
  double host_scale = 1.0;      ///< host BLAS kernel durations

  bool identity() const;
  /// Duration multiplier (1 / speed factor) for one cost class.
  double duration_factor(CostClass cls) const;
  std::string label() const;
};

/// Refold the recorded schedule under the knobs' per-class rate scales.
/// With identity knobs the result reproduces the recorded makespan bitwise.
ReplayResult replay_exact(const ScheduleRecord& record,
                          const WhatIfKnobs& knobs = {});

struct WhatIfResult {
  WhatIfKnobs knobs;
  double makespan = 0.0;       ///< predicted virtual makespan
  double recorded_makespan = 0.0;
  double speedup = 1.0;        ///< recorded / predicted
};

/// Predict the makespan of the recorded run under rate knobs by exact event
/// replay, without re-running any numerics.
WhatIfResult whatif_replay(const ScheduleRecord& record,
                           const WhatIfKnobs& knobs);

/// One step of the critical path's task spine.
struct CriticalStep {
  int lane = -1;
  int task = -1;            ///< index into record.lanes[lane].tasks
  TaskKind kind = TaskKind::Front;
  index_t id = -1;          ///< snode (Front) or batch index (Batch)
  double seconds = 0.0;     ///< on-path seconds attributed inside this task
};

/// Slack of one work task (CPM latest-finish minus actual finish: how much
/// later the task could have completed without growing the makespan).
struct TaskSlack {
  int lane = -1;
  int task = -1;
  TaskKind kind = TaskKind::Front;
  index_t id = -1;
  double start = 0.0, end = 0.0;
  double slack = 0.0;
};

struct CriticalPathReport {
  double makespan = 0.0;
  /// Per-cost-class seconds on the critical path; sums to makespan exactly
  /// (plus `idle_seconds` for any pre-recording lead-in, normally zero).
  std::array<double, kNumCostClasses> class_seconds{};
  /// Seconds of on-path executor-window time per policy index (0 = outside
  /// any executor window or unknown).
  std::array<double, 8> policy_seconds{};
  /// policy_seconds slot of aggregated batch dispatches (Policy::Batched).
  static constexpr std::size_t kBatchedPolicy = 5;
  double idle_seconds = 0.0;
  /// Task spine, in execution order (leaf-most first). Tasks contributing
  /// zero seconds are omitted.
  std::vector<CriticalStep> spine;
  /// All work tasks with their CPM slack, ascending slack order.
  std::vector<TaskSlack> slack;

  double class_fraction(CostClass cls) const {
    return makespan > 0.0
               ? class_seconds[static_cast<std::size_t>(cls)] / makespan
               : 0.0;
  }
  /// Human-readable multi-section report.
  void write_text(std::ostream& os) const;
};

CriticalPathReport analyze_critical_path(const ScheduleRecord& record);

/// Chrome-trace (chrome://tracing / Perfetto JSON) export of the recorded
/// task schedule on the VIRTUAL clock: one trace thread per lane, one "X"
/// complete event per task (µs = simulated seconds × 1e6). When `report` is
/// non-null the critical path is overlaid: spine tasks carry cat
/// "critical", a color override, and their spine index/on-path seconds in
/// args, and numbered "s"/"f" flow arrows stitch consecutive spine steps
/// across lane hand-offs.
void write_schedule_chrome_trace(const ScheduleRecord& record,
                                 const CriticalPathReport* report,
                                 std::ostream& os);

/// Emit sched.cp.* gauges for `report` into the global metrics registry
/// (no-op when obs recording is off).
void emit_critical_path_metrics(const CriticalPathReport& report);

/// Emit whatif.* gauges for one counterfactual prediction.
void emit_whatif_metrics(const WhatIfResult& result);

}  // namespace mfgpu::obs
