#include "obs/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/table.hpp"

namespace mfgpu::obs {

namespace {

constexpr int kMaxStreams = 8;

/// Mutable replay cursor of one lane.
struct LaneCursor {
  const ScheduleLane* lane = nullptr;
  std::size_t pos = 0;
  double live_now = 0.0;
  double replay_now = 0.0;
  /// live absolute time -> replayed absolute time, fed by every event's
  /// post-state and every enqueue / sync-copy completion.
  std::unordered_map<double, double> map;
  std::array<double, kMaxStreams> stream_ready{};  // replay-side stream folds

  double translate(double v) const {
    auto it = map.find(v);
    return it != map.end() ? it->second : v;
  }
};

int stream_slot(std::int8_t stream) {
  const int s = stream;
  return (s >= 0 && s < kMaxStreams) ? s : kMaxStreams - 1;
}

struct ReadyPos {
  int lane = -1;
  std::size_t index = 0;  ///< position of the Ready event in its lane
};

/// The live run's per-event trail, which the critical-path walk reads back.
struct LiveTrail {
  /// now_after[l][i]: lane l's live clock after event i replays.
  std::vector<std::vector<double>> now_after;
  std::vector<double> ready_live;  ///< per snode
  std::vector<ReadyPos> ready_pos;
  int makespan_lane = 0;  ///< first lane whose live clock ends at the makespan
};

/// The one dependency-driven traversal of a record: refolds the replayed
/// clocks under `knobs` and the live clocks alongside. A non-null `trail`
/// also receives the live per-event post-states and Ready positions.
ReplayResult fold_record(const ScheduleRecord& record,
                         const WhatIfKnobs& knobs, LiveTrail* trail) {
  ReplayResult out;
  const std::size_t num_lanes = record.lanes.size();
  out.lane_final.assign(num_lanes, 0.0);
  out.update_ready.assign(static_cast<std::size_t>(record.num_snodes), 0.0);
  if (record.empty()) return out;
  if (trail != nullptr) {
    trail->now_after.resize(num_lanes);
    for (std::size_t l = 0; l < num_lanes; ++l) {
      trail->now_after[l].resize(record.lanes[l].events.size());
    }
    trail->ready_pos.assign(static_cast<std::size_t>(record.num_snodes),
                            ReadyPos{});
  }

  std::vector<LaneCursor> cursors(num_lanes);
  for (std::size_t l = 0; l < num_lanes; ++l) {
    LaneCursor& cur = cursors[l];
    cur.lane = &record.lanes[l];
    cur.live_now = cur.lane->start_now;
    cur.replay_now = cur.lane->start_now;
    cur.map.emplace(cur.live_now, cur.replay_now);
  }

  std::vector<double> ready_live(
      static_cast<std::size_t>(record.num_snodes), 0.0);
  std::vector<char> ready_set(static_cast<std::size_t>(record.num_snodes), 0);

  // Process maximal runnable event prefixes per lane until every lane is
  // drained. A Join on a snode whose Ready event has not replayed yet stalls
  // its lane; the live run executed in SOME valid order, so a full pass with
  // no progress means the record is corrupt.
  std::size_t remaining = 0;
  for (const auto& cur : cursors) remaining += cur.lane->events.size();
  bool progress = true;
  while (remaining > 0) {
    MFGPU_CHECK(progress, "replay_exact: dependency cycle in record");
    progress = false;
    for (std::size_t l = 0; l < num_lanes; ++l) {
      LaneCursor& cur = cursors[l];
      const auto& events = cur.lane->events;
      while (cur.pos < events.size()) {
        const ClockEvent& ev = events[cur.pos];
        if (ev.op == SchedOp::Join) {
          MFGPU_CHECK(ev.dep >= 0 && ev.dep < record.num_snodes,
                      "replay_exact: join on invalid snode");
          if (ready_set[static_cast<std::size_t>(ev.dep)] == 0) break;
        }
        const double f = knobs.duration_factor(ev.cls);
        switch (ev.op) {
          case SchedOp::Add:
            cur.live_now += ev.a;
            cur.replay_now += ev.a * f;
            break;
          case SchedOp::Wait:
            cur.live_now = std::max(cur.live_now, ev.a);
            cur.replay_now = std::max(cur.replay_now, cur.translate(ev.a));
            break;
          case SchedOp::Join: {
            const std::size_t dep = static_cast<std::size_t>(ev.dep);
            cur.live_now = std::max(cur.live_now, ready_live[dep]);
            cur.replay_now = std::max(cur.replay_now, out.update_ready[dep]);
            break;
          }
          case SchedOp::Ready: {
            const std::size_t dep = static_cast<std::size_t>(ev.dep);
            const double rl = std::max(ev.a, cur.live_now);
            const double rr = std::max(cur.translate(ev.a), cur.replay_now);
            ready_live[dep] = rl;
            out.update_ready[dep] = rr;
            ready_set[dep] = 1;
            cur.map[rl] = rr;
            if (trail != nullptr) {
              trail->ready_pos[dep] = ReadyPos{static_cast<int>(l), cur.pos};
            }
            break;
          }
          case SchedOp::Enqueue: {
            const std::size_t st =
                static_cast<std::size_t>(stream_slot(ev.stream));
            const double start =
                std::max(cur.stream_ready[st], cur.translate(ev.a));
            const double done = start + ev.b * f;
            cur.stream_ready[st] = done;
            cur.map[ev.c] = done;
            break;
          }
          case SchedOp::SyncCopy: {
            const double done =
                std::max(cur.replay_now, cur.translate(ev.a)) + ev.b * f;
            cur.map[ev.c] = done;
            break;
          }
        }
        cur.map[cur.live_now] = cur.replay_now;
        if (trail != nullptr) {
          trail->now_after[l][cur.pos] = cur.live_now;
        }
        ++cur.pos;
        --remaining;
        progress = true;
      }
    }
  }

  for (std::size_t l = 0; l < num_lanes; ++l) {
    out.lane_final[l] = cursors[l].replay_now;
    out.makespan = std::max(out.makespan, cursors[l].replay_now);
    if (cursors[l].live_now > out.live_makespan) {
      out.live_makespan = cursors[l].live_now;
      if (trail != nullptr) trail->makespan_lane = static_cast<int>(l);
    }
  }
  if (trail != nullptr) trail->ready_live = std::move(ready_live);
  return out;
}

}  // namespace

ReplayResult replay_exact(const ScheduleRecord& record,
                          const WhatIfKnobs& knobs) {
  return fold_record(record, knobs, nullptr);
}

// ---------------------------------------------------------------------------
// Critical path.

namespace {

double now_before(const ScheduleRecord& record, const LiveTrail& trail,
                  int lane, std::size_t i) {
  if (i == 0) return record.lanes[static_cast<std::size_t>(lane)].start_now;
  return trail.now_after[static_cast<std::size_t>(lane)][i - 1];
}

/// Task on `lane` whose event range contains `i` (-1 when between tasks).
int task_containing(const ScheduleLane& lane, std::size_t i) {
  for (int t = static_cast<int>(lane.tasks.size()) - 1; t >= 0; --t) {
    const ScheduleTask& task = lane.tasks[static_cast<std::size_t>(t)];
    if (i >= task.ev_begin && i < task.ev_end) return t;
  }
  return -1;
}

int task_policy(const ScheduleTask& task) {
  if (task.kind == TaskKind::Batch) {
    return static_cast<int>(CriticalPathReport::kBatchedPolicy);
  }
  return task.member_policy.empty() ? 0 : task.member_policy.front();
}

}  // namespace

CriticalPathReport analyze_critical_path(const ScheduleRecord& record) {
  CriticalPathReport report;
  if (record.empty()) return report;
  LiveTrail trail;
  report.makespan = fold_record(record, WhatIfKnobs{}, &trail).live_makespan;

  // Backward walk from the makespan lane's last event, jumping through
  // binding joins onto the producing lane. Every attributed chunk is a
  // post-state difference, so the sum telescopes to the makespan.
  int lane = trail.makespan_lane;
  const ScheduleLane* lp = &record.lanes[static_cast<std::size_t>(lane)];
  std::size_t i = lp->events.size();
  std::vector<CriticalStep> spine;  // walk order = root-most first
  auto attribute = [&](std::size_t index, double seconds, CostClass cls) {
    if (seconds <= 0.0) return;
    report.class_seconds[static_cast<std::size_t>(cls)] += seconds;
    const int t = task_containing(*lp, index);
    if (t < 0) return;
    const ScheduleTask& task = lp->tasks[static_cast<std::size_t>(t)];
    if (spine.empty() || spine.back().lane != lane ||
        spine.back().task != t) {
      CriticalStep step;
      step.lane = lane;
      step.task = t;
      step.kind = task.kind;
      step.id = task.kind == TaskKind::Batch ? task.batch : task.snode;
      spine.push_back(step);
    }
    spine.back().seconds += seconds;
    if (index >= task.exec_begin && index < task.exec_end) {
      const int policy = task_policy(task);
      if (policy >= 0 &&
          policy < static_cast<int>(report.policy_seconds.size())) {
        report.policy_seconds[static_cast<std::size_t>(policy)] += seconds;
      }
    }
  };

  while (true) {
    if (i == 0) {
      // Lead-in before this lane's first event (normally the clock origin).
      report.idle_seconds += lp->start_now;
      break;
    }
    --i;
    const ClockEvent& ev = lp->events[i];
    const double nb = now_before(record, trail, lane, i);
    const double na = trail.now_after[static_cast<std::size_t>(lane)][i];
    const double gap = na - nb;
    if (gap <= 0.0) continue;
    if (ev.op == SchedOp::Join) {
      // Binding dependency: the path continues where the child's update
      // became ready. Any excess of the ready time over the producing
      // lane's clock at that point is an in-flight d2h tail.
      const std::size_t dep = static_cast<std::size_t>(ev.dep);
      const ReadyPos rp = trail.ready_pos[dep];
      MFGPU_CHECK(rp.lane >= 0, "analyze_critical_path: missing producer");
      const double ready = trail.ready_live[dep];
      const double child_now =
          trail.now_after[static_cast<std::size_t>(rp.lane)][rp.index];
      attribute(i, na - ready, ev.cls);  // zero unless the fold saturated
      lane = rp.lane;
      lp = &record.lanes[static_cast<std::size_t>(lane)];
      i = rp.index;
      attribute(i, ready - child_now, CostClass::Transfer);
      continue;
    }
    attribute(i, gap, ev.cls);
  }

  std::reverse(spine.begin(), spine.end());
  report.spine = std::move(spine);

  // CPM slack over the work tasks: latest finish lf[T] = min over consumers
  // U of (lf[U] - duration(U)); sinks finish at the makespan.
  struct WorkRef {
    int lane, task;
  };
  std::vector<WorkRef> work;
  std::vector<std::vector<std::size_t>> task_index(record.lanes.size());
  for (std::size_t l = 0; l < record.lanes.size(); ++l) {
    task_index[l].assign(record.lanes[l].tasks.size(), 0);
    for (std::size_t t = 0; t < record.lanes[l].tasks.size(); ++t) {
      if (!record.lanes[l].tasks[t].is_work()) continue;
      task_index[l][t] = work.size();
      work.push_back(WorkRef{static_cast<int>(l), static_cast<int>(t)});
    }
  }
  auto task_of = [&](std::size_t w) -> const ScheduleTask& {
    return record.lanes[static_cast<std::size_t>(work[w].lane)]
        .tasks[static_cast<std::size_t>(work[w].task)];
  };
  auto work_of = [&](ScheduleRecord::TaskRef ref) -> int {
    if (ref.lane < 0) return -1;
    return static_cast<int>(
        task_index[static_cast<std::size_t>(ref.lane)]
                  [static_cast<std::size_t>(ref.task)]);
  };
  std::vector<double> lf(work.size(), report.makespan);
  // Reverse topological order: descending actual start time is consistent
  // with the consumer relation (a consumer's window ends after its
  // producer's began).
  std::vector<std::size_t> order(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) order[w] = w;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return task_of(x).t_begin < task_of(y).t_begin;
  });
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t w = *it;
    const ScheduleTask& task = task_of(w);
    for (const index_t snode : task.members) {
      if (snode < 0 || snode >= record.num_snodes) continue;
      const index_t parent = record.parent[static_cast<std::size_t>(snode)];
      if (parent == -1) continue;
      const int consumer =
          work_of(record.producer[static_cast<std::size_t>(parent)]);
      if (consumer < 0 || static_cast<std::size_t>(consumer) == w) continue;
      const ScheduleTask& ct = task_of(static_cast<std::size_t>(consumer));
      lf[w] = std::min(lf[w], lf[static_cast<std::size_t>(consumer)] -
                                  (ct.t_end - ct.t_begin));
    }
  }
  report.slack.reserve(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) {
    const ScheduleTask& task = task_of(w);
    TaskSlack ts;
    ts.lane = work[w].lane;
    ts.task = work[w].task;
    ts.kind = task.kind;
    ts.id = task.kind == TaskKind::Batch ? task.batch : task.snode;
    ts.start = task.t_begin;
    ts.end = task.t_end;
    ts.slack = std::max(0.0, lf[w] - task.t_end);
    report.slack.push_back(ts);
  }
  std::sort(report.slack.begin(), report.slack.end(),
            [](const TaskSlack& x, const TaskSlack& y) {
              return x.slack < y.slack;
            });
  return report;
}

// ---------------------------------------------------------------------------
// What-if replay.

bool WhatIfKnobs::identity() const {
  return gpu_scale == 1.0 && transfer_scale == 1.0 && host_scale == 1.0;
}

double WhatIfKnobs::duration_factor(CostClass cls) const {
  switch (cls) {
    case CostClass::Host: return 1.0 / host_scale;
    case CostClass::Assembly: return 1.0;  // fixed-rate; see header
    case CostClass::Gpu: return 1.0 / gpu_scale;
    case CostClass::Transfer:
    case CostClass::Alloc: return 1.0 / transfer_scale;
  }
  return 1.0;
}

std::string WhatIfKnobs::label() const {
  if (identity()) return "null";
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (gpu_scale != 1.0) {
    sep();
    os << "gpu=x" << gpu_scale;
  }
  if (transfer_scale != 1.0) {
    sep();
    os << "transfer=x" << transfer_scale;
  }
  if (host_scale != 1.0) {
    sep();
    os << "host=x" << host_scale;
  }
  return os.str();
}

WhatIfResult whatif_replay(const ScheduleRecord& record,
                           const WhatIfKnobs& knobs) {
  WhatIfResult out;
  out.knobs = knobs;
  out.recorded_makespan = record.makespan;
  if (record.empty()) return out;
  out.makespan = replay_exact(record, knobs).makespan;
  if (out.makespan > 0.0) {
    out.speedup = out.recorded_makespan / out.makespan;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

void CriticalPathReport::write_text(std::ostream& os) const {
  os << "Critical path: " << makespan << " s virtual makespan\n";
  Table attribution("Makespan attribution", {"class", "seconds", "fraction"});
  for (std::size_t c = 0; c < kNumCostClasses; ++c) {
    if (class_seconds[c] == 0.0) continue;
    attribution.add_row({std::string(cost_class_name(
                             static_cast<CostClass>(c))),
                         class_seconds[c],
                         class_fraction(static_cast<CostClass>(c))});
  }
  if (idle_seconds > 0.0) {
    attribution.add_row(
        {std::string("(lead-in)"), idle_seconds, idle_seconds / makespan});
  }
  attribution.print(os);

  bool any_policy = false;
  for (double s : policy_seconds) any_policy = any_policy || s > 0.0;
  if (any_policy) {
    Table policies("On-path executor time by policy",
                   {"policy", "seconds"});
    for (std::size_t p = 0; p < policy_seconds.size(); ++p) {
      if (policy_seconds[p] == 0.0) continue;
      const std::string name =
          p == kBatchedPolicy
              ? std::string("batched")
              : "P" + std::to_string(p);
      policies.add_row({name, policy_seconds[p]});
    }
    os << "\n";
    policies.print(os);
  }

  os << "\n";
  Table spine_table("Critical-path spine",
                    {"#", "worker", "task", "on-path seconds"});
  const std::size_t show = std::min<std::size_t>(spine.size(), 24);
  for (std::size_t i = 0; i < show; ++i) {
    const CriticalStep& step = spine[i];
    std::string what;
    switch (step.kind) {
      case TaskKind::Front:
        what = "front " + std::to_string(step.id);
        break;
      case TaskKind::Batch:
        what = "batch " + std::to_string(step.id);
        break;
      case TaskKind::Prologue:
        what = "prologue";
        break;
      case TaskKind::Epilogue:
        what = "epilogue";
        break;
    }
    spine_table.add_row({static_cast<index_t>(i),
                         static_cast<index_t>(step.lane), what,
                         step.seconds});
  }
  spine_table.print(os);
  if (spine.size() > show) {
    os << "  ... " << spine.size() - show << " more on-path tasks\n";
  }

  if (!slack.empty()) {
    std::size_t zero = 0;
    for (const TaskSlack& ts : slack) {
      if (ts.slack <= 0.0) ++zero;
    }
    os << "\nSlack: " << zero << " of " << slack.size()
       << " work tasks are slack-free (schedule-critical)\n";
  }
}

void emit_critical_path_metrics(const CriticalPathReport& report) {
  if (!enabled()) return;
  auto& metrics = MetricsRegistry::global();
  metrics.gauge_set("sched.cp.makespan_seconds", report.makespan);
  for (std::size_t c = 0; c < kNumCostClasses; ++c) {
    const std::string name = cost_class_name(static_cast<CostClass>(c));
    metrics.gauge_set("sched.cp." + name + ".seconds",
                      report.class_seconds[c]);
    metrics.gauge_set("sched.cp." + name + ".fraction",
                      report.class_fraction(static_cast<CostClass>(c)));
  }
  metrics.gauge_set("sched.cp.spine_tasks",
                    static_cast<double>(report.spine.size()));
  std::size_t zero_slack = 0;
  for (const TaskSlack& ts : report.slack) {
    if (ts.slack <= 0.0) ++zero_slack;
  }
  metrics.gauge_set("sched.cp.zero_slack_tasks",
                    static_cast<double>(zero_slack));
}

void write_schedule_chrome_trace(const ScheduleRecord& record,
                                 const CriticalPathReport* report,
                                 std::ostream& os) {
  const auto saved_precision = os.precision(17);
  const auto us = [](double seconds) { return seconds * 1e6; };

  // (lane << 32 | task) -> spine position, for the overlay.
  std::unordered_map<std::uint64_t, std::size_t> spine_pos;
  const auto key = [](int lane, int task) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lane))
            << 32) |
           static_cast<std::uint32_t>(task);
  };
  if (report != nullptr) {
    for (std::size_t i = 0; i < report->spine.size(); ++i) {
      spine_pos.emplace(key(report->spine[i].lane, report->spine[i].task), i);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"mfgpu schedule (virtual time)\"}}";
  for (std::size_t l = 0; l < record.lanes.size(); ++l) {
    const ScheduleLane& lane = record.lanes[l];
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << l
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker "
       << lane.worker << (lane.has_gpu ? " (gpu)" : " (cpu)") << "\"}}";
  }

  for (std::size_t l = 0; l < record.lanes.size(); ++l) {
    const ScheduleLane& lane = record.lanes[l];
    for (std::size_t t = 0; t < lane.tasks.size(); ++t) {
      const ScheduleTask& task = lane.tasks[t];
      std::string name;
      switch (task.kind) {
        case TaskKind::Front:
          name = "front " + std::to_string(task.snode);
          break;
        case TaskKind::Batch:
          name = "batch " + std::to_string(task.batch);
          break;
        case TaskKind::Prologue: name = "prologue"; break;
        case TaskKind::Epilogue: name = "epilogue"; break;
      }
      const auto on_spine =
          spine_pos.find(key(static_cast<int>(l), static_cast<int>(t)));
      const bool critical = on_spine != spine_pos.end();
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << l << ",\"name\":\"" << name
         << "\",\"cat\":\"" << (critical ? "critical" : "schedule") << '"';
      if (critical) os << ",\"cname\":\"terrible\"";
      os << ",\"ts\":" << us(task.t_begin)
         << ",\"dur\":" << us(std::max(0.0, task.t_end - task.t_begin))
         << ",\"args\":{\"members\":" << task.members.size();
      if (task.request_id != 0) {
        os << ",\"request_id\":" << task.request_id;
      }
      if (critical) {
        os << ",\"spine_index\":" << on_spine->second
           << ",\"on_path_seconds\":" << report->spine[on_spine->second].seconds;
      }
      os << "}}";
    }
  }

  // Flow arrows between consecutive spine steps that hand off across lanes
  // (same-lane succession is already visible as adjacency on the track).
  if (report != nullptr) {
    for (std::size_t i = 0; i + 1 < report->spine.size(); ++i) {
      const CriticalStep& from = report->spine[i];
      const CriticalStep& to = report->spine[i + 1];
      if (from.lane == to.lane) continue;
      const ScheduleTask& src =
          record.lanes[static_cast<std::size_t>(from.lane)]
              .tasks[static_cast<std::size_t>(from.task)];
      const ScheduleTask& dst =
          record.lanes[static_cast<std::size_t>(to.lane)]
              .tasks[static_cast<std::size_t>(to.task)];
      sep();
      os << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << from.lane
         << ",\"name\":\"critical-path\",\"cat\":\"critical\",\"id\":" << i
         << ",\"ts\":" << us(src.t_end) << '}';
      sep();
      // The consumer task may begin before its join resolves (it starts,
      // then stalls waiting on the producer); the hand-off itself happens
      // no earlier than the producer's end, so clamp the landing time to
      // keep the arrow pointing forward in virtual time.
      os << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << to.lane
         << ",\"name\":\"critical-path\",\"cat\":\"critical\",\"id\":" << i
         << ",\"ts\":" << us(std::max(dst.t_begin, src.t_end)) << '}';
    }
  }
  os << "\n]}\n";
  os.precision(saved_precision);
}

void emit_whatif_metrics(const WhatIfResult& result) {
  if (!enabled()) return;
  auto& metrics = MetricsRegistry::global();
  metrics.add("whatif.predictions", 1.0);
  metrics.gauge_set("whatif.last.makespan_seconds", result.makespan);
  metrics.gauge_set("whatif.last.speedup", result.speedup);
}

}  // namespace mfgpu::obs
