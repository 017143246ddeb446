// Schedule flight recorder: a deterministic, replayable record of one
// numeric factorization's virtual-time schedule.
//
// The serial, batched, and parallel drivers attach one recorder lane per
// worker host clock. The lane's ClockSink captures every primitive timing
// operation with its ORIGINAL operands — advance seconds, wait targets,
// stream enqueues (earliest/duration/done), synchronous-copy completions —
// plus driver-level markers: task boundaries, dependency joins (the
// "wait for child c's update matrix" edges), and update-ready hand-offs
// (`update_ready[s] = max(outcome.update_ready_at, now)`).
//
// Replaying the recorded operations in recorded per-lane order, with join
// targets RECOMPUTED from the children's replayed ready times, folds to the
// bitwise-identical virtual makespan (obs/whatif.hpp). Durations are never
// reconstructed by differencing recorded absolute times: `a + (b - a) == b`
// is not an IEEE-754 identity, so each event keeps the operand the live
// simulator actually folded.
//
// Threading contract: lanes are created before the pool starts; while the
// pool runs, lane L is touched only by the worker executing on L (the pool
// pins one OS thread per worker), so no locking is needed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "gpusim/clock.hpp"
#include "gpusim/cost_class.hpp"
#include "support/error.hpp"

namespace mfgpu::obs {

/// One primitive recorded operation on a lane's clock or streams.
enum class SchedOp : std::uint8_t {
  Add,       ///< clock.advance(a) under class `cls`
  Wait,      ///< clock.advance_to(a) (stall class `cls`; no-ops included)
  Join,      ///< advance_to(update_ready[dep]) — recomputed in replay
  Ready,     ///< update_ready[dep] = max(a /*extra*/, now)
  Enqueue,   ///< stream `stream`: starts >= a, runs b seconds, done at c
  SyncCopy,  ///< blocking copy: dep time a, duration b, done at c
};

struct ClockEvent {
  SchedOp op = SchedOp::Add;
  CostClass cls = CostClass::Host;
  std::int8_t stream = -1;  ///< Enqueue: device stream index
  index_t dep = -1;         ///< Join: child snode; Ready: producing snode
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

enum class TaskKind : std::uint8_t { Front, Batch, Prologue, Epilogue };

/// One scheduled unit of work as executed: a front, an aggregated batch of
/// fronts, or per-worker setup/teardown.
struct ScheduleTask {
  TaskKind kind = TaskKind::Front;
  int worker = 0;
  index_t snode = -1;  ///< Front tasks
  index_t batch = -1;  ///< Batch tasks: plan batch index
  /// Supernodes whose update matrices the task published, in publish order
  /// (one for Front tasks), and the policy that executed each.
  std::vector<index_t> members;
  std::vector<int> member_policy;
  std::size_t ev_begin = 0, ev_end = 0;      ///< lane event range
  std::size_t exec_begin = 0, exec_end = 0;  ///< executor window within it
  double t_begin = 0.0, t_end = 0.0;         ///< live lane clock at bounds
  std::uint64_t request_id = 0;

  bool is_work() const {
    return kind == TaskKind::Front || kind == TaskKind::Batch;
  }
};

struct ScheduleLane {
  int worker = 0;
  bool has_gpu = false;
  std::vector<ClockEvent> events;
  std::vector<ScheduleTask> tasks;
  double start_now = 0.0;  ///< clock value when recording attached
  double final_now = 0.0;  ///< clock value when recording detached
};

/// The complete flight record of one factorization run.
struct ScheduleRecord {
  std::vector<ScheduleLane> lanes;
  index_t num_snodes = 0;
  /// Supernode elimination-tree parent (dependency DAG of the schedule).
  std::vector<index_t> parent;
  double makespan = 0.0;  ///< max lane final_now, as the live run saw it
  bool parallel = false;
  bool batched = false;

  /// Per snode: (lane, task) of the work task that produced it (-1/-1 when
  /// the run recorded no work, e.g. an empty matrix).
  struct TaskRef {
    int lane = -1;
    int task = -1;
  };
  std::vector<TaskRef> producer;

  bool empty() const { return lanes.empty(); }
  std::size_t total_events() const;
  std::size_t total_tasks() const;

  /// Compact JSON dump of the task-level schedule (not the raw events).
  void write_json(std::ostream& os) const;
};

/// Driver-side recording API. One instance records one factorization run.
class ScheduleRecorder {
 public:
  ScheduleRecorder();
  ~ScheduleRecorder();
  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// Reset and size the record: one lane per worker, the supernode count
  /// and elimination-tree parents for dependency reconstruction.
  void start(int num_lanes, index_t num_snodes, std::vector<index_t> parent,
             bool parallel, bool batched);

  /// Begin/stop capturing `clock`'s operations into lane `lane`.
  void attach(int lane, SimClock& clock, bool has_gpu);
  void detach(int lane, SimClock& clock);

  void begin_task(int lane, TaskKind kind, index_t id, const SimClock& clock);
  /// The next advance_to on this lane is the dependency join on `child`.
  void note_join(int lane, index_t child);
  /// Executor window markers (around execute / execute_batch).
  void begin_exec(int lane);
  void end_exec(int lane);
  /// update_ready[snode] = max(extra, now) happened; `policy` executed it.
  /// Records `snode` as a member of the current task.
  void note_ready(int lane, index_t snode, double extra, int policy);
  void end_task(int lane, const SimClock& clock);

  /// Finalize: computes producer refs and the recorded makespan, and
  /// returns the record (the recorder is left empty).
  ScheduleRecord take();

  int num_lanes() const { return static_cast<int>(record_.lanes.size()); }

 private:
  class LaneSink;
  friend class LaneSink;

  void push(int lane, const ClockEvent& ev);

  ScheduleRecord record_;
  std::vector<LaneSink> sinks_;
  std::vector<index_t> pending_join_;  ///< per lane; -1 when none
};

}  // namespace mfgpu::obs
