#include "obs/schedule_record.hpp"

#include <algorithm>
#include <ostream>

#include "obs/request_context.hpp"

namespace mfgpu::obs {

std::size_t ScheduleRecord::total_events() const {
  std::size_t n = 0;
  for (const auto& lane : lanes) n += lane.events.size();
  return n;
}

std::size_t ScheduleRecord::total_tasks() const {
  std::size_t n = 0;
  for (const auto& lane : lanes) n += lane.tasks.size();
  return n;
}

namespace {

const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::Front: return "front";
    case TaskKind::Batch: return "batch";
    case TaskKind::Prologue: return "prologue";
    case TaskKind::Epilogue: return "epilogue";
  }
  return "?";
}

}  // namespace

void ScheduleRecord::write_json(std::ostream& os) const {
  os << "{\n  \"makespan\": " << makespan
     << ",\n  \"num_snodes\": " << num_snodes
     << ",\n  \"parallel\": " << (parallel ? "true" : "false")
     << ",\n  \"batched\": " << (batched ? "true" : "false")
     << ",\n  \"lanes\": [\n";
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const ScheduleLane& lane = lanes[l];
    os << "    {\"worker\": " << lane.worker
       << ", \"has_gpu\": " << (lane.has_gpu ? "true" : "false")
       << ", \"final_now\": " << lane.final_now << ", \"tasks\": [\n";
    for (std::size_t t = 0; t < lane.tasks.size(); ++t) {
      const ScheduleTask& task = lane.tasks[t];
      os << "      {\"kind\": \"" << task_kind_name(task.kind) << "\"";
      if (task.snode >= 0) os << ", \"snode\": " << task.snode;
      if (task.batch >= 0) os << ", \"batch\": " << task.batch;
      os << ", \"t_begin\": " << task.t_begin
         << ", \"t_end\": " << task.t_end;
      if (!task.member_policy.empty()) {
        os << ", \"policy\": " << task.member_policy.front();
      }
      if (task.members.size() > 1) {
        os << ", \"members\": " << task.members.size();
      }
      if (task.request_id != 0) {
        os << ", \"request_id\": " << task.request_id;
      }
      os << "}" << (t + 1 < lane.tasks.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (l + 1 < lanes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// Per-lane ClockSink. Reads the ambient CostClass at callback time.
class ScheduleRecorder::LaneSink final : public ClockSink {
 public:
  void bind(ScheduleRecorder* rec, int lane) {
    rec_ = rec;
    lane_ = lane;
  }

  void on_advance(double seconds) override {
    ClockEvent ev;
    ev.op = SchedOp::Add;
    ev.cls = current_cost_class();
    ev.a = seconds;
    rec_->push(lane_, ev);
  }

  void on_wait(double target, double /*before*/) override {
    ClockEvent ev;
    ev.cls = current_cost_class();
    ev.a = target;
    index_t& pending = rec_->pending_join_[static_cast<std::size_t>(lane_)];
    if (pending >= 0) {
      ev.op = SchedOp::Join;
      ev.dep = pending;
      pending = -1;
    } else {
      ev.op = SchedOp::Wait;
    }
    rec_->push(lane_, ev);
  }

  void on_enqueue(int stream, double earliest, double duration,
                  double done) override {
    ClockEvent ev;
    ev.op = SchedOp::Enqueue;
    ev.cls = current_cost_class();
    ev.stream = static_cast<std::int8_t>(stream);
    ev.a = earliest;
    ev.b = duration;
    ev.c = done;
    rec_->push(lane_, ev);
  }

  void on_sync_copy(double dep, double duration, double done) override {
    ClockEvent ev;
    ev.op = SchedOp::SyncCopy;
    ev.cls = current_cost_class();
    ev.a = dep;
    ev.b = duration;
    ev.c = done;
    rec_->push(lane_, ev);
  }

 private:
  ScheduleRecorder* rec_ = nullptr;
  int lane_ = 0;
};

ScheduleRecorder::ScheduleRecorder() = default;
ScheduleRecorder::~ScheduleRecorder() = default;

void ScheduleRecorder::start(int num_lanes, index_t num_snodes,
                             std::vector<index_t> parent, bool parallel,
                             bool batched) {
  MFGPU_CHECK(num_lanes >= 1, "ScheduleRecorder: need at least one lane");
  record_ = ScheduleRecord{};
  record_.lanes.resize(static_cast<std::size_t>(num_lanes));
  record_.num_snodes = num_snodes;
  record_.parent = std::move(parent);
  record_.parallel = parallel;
  record_.batched = batched;
  sinks_.assign(static_cast<std::size_t>(num_lanes), LaneSink{});
  for (int l = 0; l < num_lanes; ++l) {
    record_.lanes[static_cast<std::size_t>(l)].worker = l;
    sinks_[static_cast<std::size_t>(l)].bind(this, l);
  }
  pending_join_.assign(static_cast<std::size_t>(num_lanes), -1);
}

void ScheduleRecorder::attach(int lane, SimClock& clock, bool has_gpu) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  rec_lane.has_gpu = has_gpu;
  rec_lane.start_now = clock.now();
  clock.set_sink(&sinks_[static_cast<std::size_t>(lane)]);
}

void ScheduleRecorder::detach(int lane, SimClock& clock) {
  record_.lanes[static_cast<std::size_t>(lane)].final_now = clock.now();
  clock.set_sink(nullptr);
}

void ScheduleRecorder::push(int lane, const ClockEvent& ev) {
  record_.lanes[static_cast<std::size_t>(lane)].events.push_back(ev);
}

void ScheduleRecorder::begin_task(int lane, TaskKind kind, index_t id,
                                  const SimClock& clock) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  ScheduleTask task;
  task.kind = kind;
  task.worker = lane;
  if (kind == TaskKind::Front) task.snode = id;
  if (kind == TaskKind::Batch) task.batch = id;
  task.ev_begin = rec_lane.events.size();
  task.t_begin = clock.now();
  rec_lane.tasks.push_back(std::move(task));
}

void ScheduleRecorder::note_join(int lane, index_t child) {
  pending_join_[static_cast<std::size_t>(lane)] = child;
}

void ScheduleRecorder::begin_exec(int lane) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  rec_lane.tasks.back().exec_begin = rec_lane.events.size();
}

void ScheduleRecorder::end_exec(int lane) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  rec_lane.tasks.back().exec_end = rec_lane.events.size();
}

void ScheduleRecorder::note_ready(int lane, index_t snode, double extra,
                                  int policy) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  ClockEvent ev;
  ev.op = SchedOp::Ready;
  ev.dep = snode;
  ev.a = extra;
  rec_lane.events.push_back(ev);
  rec_lane.tasks.back().members.push_back(snode);
  rec_lane.tasks.back().member_policy.push_back(policy);
}

void ScheduleRecorder::end_task(int lane, const SimClock& clock) {
  ScheduleLane& rec_lane = record_.lanes[static_cast<std::size_t>(lane)];
  ScheduleTask& task = rec_lane.tasks.back();
  task.ev_end = rec_lane.events.size();
  task.t_end = clock.now();
  task.request_id = current_request_id();
  MFGPU_CHECK(pending_join_[static_cast<std::size_t>(lane)] == -1,
              "ScheduleRecorder: unconsumed join mark at task end");
}

ScheduleRecord ScheduleRecorder::take() {
  record_.makespan = 0.0;
  for (const ScheduleLane& lane : record_.lanes) {
    record_.makespan = std::max(record_.makespan, lane.final_now);
  }
  record_.producer.assign(static_cast<std::size_t>(record_.num_snodes),
                          ScheduleRecord::TaskRef{});
  for (std::size_t l = 0; l < record_.lanes.size(); ++l) {
    const ScheduleLane& lane = record_.lanes[l];
    for (std::size_t t = 0; t < lane.tasks.size(); ++t) {
      const ScheduleTask& task = lane.tasks[t];
      if (!task.is_work()) continue;
      for (const index_t snode : task.members) {
        if (snode >= 0 && snode < record_.num_snodes) {
          auto& ref = record_.producer[static_cast<std::size_t>(snode)];
          ref.lane = static_cast<int>(l);
          ref.task = static_cast<int>(t);
        }
      }
    }
  }
  ScheduleRecord out = std::move(record_);
  record_ = ScheduleRecord{};
  sinks_.clear();
  pending_join_.clear();
  return out;
}

}  // namespace mfgpu::obs
