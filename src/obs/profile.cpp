#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <string_view>
#include <utility>

#include "gpusim/fault_injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_session.hpp"
#include "support/table.hpp"

namespace mfgpu::obs {
namespace {

/// Bin edge length of the (m, k) grid (the paper's Fig. 14; Fig. 2 uses 500).
constexpr index_t kMkBin = 250;

double span_wall(const SpanEvent& ev) {
  return static_cast<double>(std::max<std::int64_t>(0, ev.end_ns - ev.start_ns)) /
         1e9;
}

bool is_name(const SpanEvent& ev, const char* category, const char* name) {
  return std::string_view(ev.category) == category &&
         std::string_view(ev.name) == name;
}

/// True when `inner` is contained in `outer` on the same thread — used to
/// avoid double counting model training that runs nested inside the numeric
/// span (the parallel path trains lazily from the worker factory).
bool contained_in(const SpanEvent& inner, const SpanEvent& outer) {
  return inner.tid == outer.tid && outer.start_ns <= inner.start_ns &&
         inner.end_ns <= outer.end_ns;
}

/// Aggregates the recorded spans into the pipeline phases.
void build_phases(ProfileReport& report, const std::vector<SpanEvent>& events) {
  PhaseTime ordering{"ordering"};
  PhaseTime symbolic{"symbolic"};
  PhaseTime train{"train"};
  PhaseTime numeric{"numeric"};
  PhaseTime solve{"solve"};

  std::vector<const SpanEvent*> numeric_spans;
  std::vector<const SpanEvent*> train_spans;
  for (const SpanEvent& ev : events) {
    const std::string_view category = ev.category;
    if (category == "ordering") {
      ordering.wall_seconds += span_wall(ev);
    } else if (is_name(ev, "symbolic", "analyze")) {
      symbolic.wall_seconds += span_wall(ev);
    } else if (is_name(ev, "solver", "train_policy_model")) {
      train.wall_seconds += span_wall(ev);
      train_spans.push_back(&ev);
    } else if (is_name(ev, "solver", "numeric_factorization")) {
      numeric.wall_seconds += span_wall(ev);
      numeric_spans.push_back(&ev);
      if (ev.sim_start >= 0.0) {
        if (numeric.sim_seconds < 0.0) numeric.sim_seconds = 0.0;
        numeric.sim_seconds += std::max(0.0, ev.sim_end - ev.sim_start);
      }
    }
  }
  // Direct multifrontal drivers (no Solver wrapper) stand in for the
  // numeric phase when no solver span was recorded.
  if (numeric_spans.empty()) {
    for (const SpanEvent& ev : events) {
      if (is_name(ev, "multifrontal", "factorize") ||
          is_name(ev, "multifrontal", "parallel_factorize")) {
        numeric.wall_seconds += span_wall(ev);
        if (ev.sim_start >= 0.0) {
          if (numeric.sim_seconds < 0.0) numeric.sim_seconds = 0.0;
          numeric.sim_seconds += std::max(0.0, ev.sim_end - ev.sim_start);
        }
      }
    }
  }
  // Training nested inside the numeric span counts as "train", not both.
  for (const SpanEvent* t : train_spans) {
    for (const SpanEvent* n : numeric_spans) {
      if (contained_in(*t, *n)) {
        numeric.wall_seconds -= span_wall(*t);
        break;
      }
    }
  }
  // The solve category may grow nested spans; count only the outermost.
  int solve_min_depth = std::numeric_limits<int>::max();
  for (const SpanEvent& ev : events) {
    if (std::string_view(ev.category) == "solve") {
      solve_min_depth = std::min(solve_min_depth, ev.depth);
    }
  }
  for (const SpanEvent& ev : events) {
    if (std::string_view(ev.category) == "solve" &&
        ev.depth == solve_min_depth) {
      solve.wall_seconds += span_wall(ev);
    }
  }

  report.phases = {std::move(ordering), std::move(symbolic), std::move(train),
                   std::move(numeric), std::move(solve)};
  report.phases_total_seconds = 0.0;
  for (const PhaseTime& phase : report.phases) {
    report.phases_total_seconds += phase.wall_seconds;
  }
}

void build_workers(ProfileReport& report, const PoolRunStats& stats,
                   double pool_wall_seconds) {
  const int num_workers = stats.num_workers();
  report.workers.reserve(static_cast<std::size_t>(num_workers));
  double busy_total = 0.0;
  double wall_max = 0.0;
  for (int w = 0; w < num_workers; ++w) {
    const auto i = static_cast<std::size_t>(w);
    WorkerProfile profile;
    profile.worker = w;
    profile.tasks = stats.executed[i];
    profile.steals = stats.steals[i];
    profile.failed_steals = stats.failed_steals[i];
    profile.busy_seconds = stats.busy_seconds[i];
    profile.idle_seconds = stats.idle_seconds[i];
    profile.wall_seconds = stats.wall_seconds[i];
    profile.utilization = profile.wall_seconds > 0.0
                              ? profile.busy_seconds / profile.wall_seconds
                              : 0.0;
    busy_total += profile.busy_seconds;
    wall_max = std::max(wall_max, profile.wall_seconds);
    report.workers.push_back(profile);
  }
  report.pool_wall_seconds =
      pool_wall_seconds > 0.0 ? pool_wall_seconds : wall_max;
  report.total_steals = stats.total_steals();
  report.total_failed_steals = stats.total_failed_steals();
  if (num_workers > 0 && report.pool_wall_seconds > 0.0) {
    report.pool_utilization =
        busy_total / (report.pool_wall_seconds * num_workers);
  }
}

void build_trace_sections(ProfileReport& report,
                          const FactorizationTrace& trace,
                          std::span<const SupernodeInfo> supernodes) {
  report.fu_calls = static_cast<index_t>(trace.calls.size());
  report.fu_seconds = trace.fu_time;
  report.assembly_seconds = trace.assembly_time;
  report.makespan_seconds = trace.total_time;

  // Etree levels: 0 at the roots, increasing toward the leaves. Supernode
  // arrays are postordered (parent > child), so one reverse sweep suffices.
  if (!supernodes.empty()) {
    std::vector<index_t> level(supernodes.size(), 0);
    index_t max_level = 0;
    for (index_t s = static_cast<index_t>(supernodes.size()) - 1; s >= 0; --s) {
      const index_t p = supernodes[static_cast<std::size_t>(s)].parent;
      if (p != -1) {
        level[static_cast<std::size_t>(s)] =
            level[static_cast<std::size_t>(p)] + 1;
      }
      max_level = std::max(max_level, level[static_cast<std::size_t>(s)]);
    }
    report.levels.assign(static_cast<std::size_t>(max_level) + 1, {});
    for (index_t l = 0; l <= max_level; ++l) {
      report.levels[static_cast<std::size_t>(l)].level = l;
    }
    for (const FuCallRecord& call : trace.calls) {
      if (call.snode < 0 ||
          call.snode >= static_cast<index_t>(supernodes.size())) {
        continue;
      }
      LevelProfile& lp =
          report.levels[static_cast<std::size_t>(
              level[static_cast<std::size_t>(call.snode)])];
      ++lp.calls;
      lp.fu_seconds += call.t_total;
      lp.ops += call.ops_total();
    }
  }

  // (m, k) heat map: x = k, y = m, one sample per call.
  index_t max_m = 0, max_k = 0;
  for (const FuCallRecord& call : trace.calls) {
    max_m = std::max(max_m, call.m);
    max_k = std::max(max_k, call.k);
  }
  report.mk_seconds = Grid2D(max_k + 1, max_m + 1, kMkBin);
  for (const FuCallRecord& call : trace.calls) {
    report.mk_seconds.add(call.k, call.m, call.t_total);
  }
  report.mk_binned_calls = 0;
  for (index_t by = 0; by < report.mk_seconds.bins_y(); ++by) {
    for (index_t bx = 0; bx < report.mk_seconds.bins_x(); ++bx) {
      report.mk_binned_calls += report.mk_seconds.count_at(bx, by);
    }
  }
}

void build_audit(PolicyAudit& audit, const FactorizationTrace& trace,
                 const ExecutorOptions& options) {
  for (const FuCallRecord& call : trace.calls) {
    if (call.dispatched) ++audit.decisions;
  }
  if (audit.decisions == 0) return;

  // Dry-run oracle priced under the run's executor options. One lazily
  // filled entry per unique (m, k); the best-policy time is shared with the
  // chosen-policy time when they coincide, so an ideal-hybrid run audits to
  // exactly zero regret.
  PolicyTimer timer(options);
  struct ShapeCost {
    int best = 0;  ///< 1..4, 0 = not yet computed
    double best_seconds = 0.0;
    std::array<double, 4> seconds{-1.0, -1.0, -1.0, -1.0};
  };
  std::map<std::pair<index_t, index_t>, ShapeCost> shapes;

  for (const FuCallRecord& d : trace.calls) {
    if (!d.dispatched || d.policy < 1 || d.policy > kMaxPolicyIndex) continue;
    const FuCall call{.m = d.m, .k = d.k};
    ShapeCost& shape = shapes[{d.m, d.k}];
    if (shape.best == 0) {
      const Policy best = timer.best_policy(call);
      shape.best = static_cast<int>(best);
      shape.best_seconds = timer.time(best, call);
      shape.seconds[static_cast<std::size_t>(shape.best - 1)] =
          shape.best_seconds;
    }
    double chosen_seconds = 0.0;
    if (d.policy == static_cast<int>(Policy::Batched)) {
      // Batched dispatches are priced per front at the dispatch's actual
      // width, via the same aggregated path the executor ran, so the
      // regret gauges stay exact when batching wins.
      chosen_seconds = timer.time_batched(call, std::max(1, d.batch));
      // The per-front ideal does not know about aggregation; a batched
      // decision "agrees" when it is at least as fast as the argmin.
      if (chosen_seconds <= shape.best_seconds) ++audit.agreements;
    } else {
      double& memo = shape.seconds[static_cast<std::size_t>(d.policy - 1)];
      if (memo < 0.0) {
        memo = timer.time(static_cast<Policy>(d.policy), call);
      }
      chosen_seconds = memo;
      if (d.policy == shape.best) ++audit.agreements;
    }
    const double regret = std::max(0.0, chosen_seconds - shape.best_seconds);
    audit.chosen_seconds += chosen_seconds;
    audit.ideal_seconds += shape.best_seconds;
    audit.regret_total_seconds += regret;
    audit.regret_max_seconds = std::max(audit.regret_max_seconds, regret);
    audit.measured_seconds += d.t_total;
    if (d.predicted_seconds >= 0.0) {
      ++audit.predicted_calls;
      audit.prediction_abs_error_seconds +=
          std::abs(d.predicted_seconds - d.t_total);
    }
    ++audit.policy_counts[static_cast<std::size_t>(d.policy - 1)];
  }
  audit.agreement_rate = static_cast<double>(audit.agreements) /
                         static_cast<double>(audit.decisions);
  audit.regret_mean_seconds =
      audit.regret_total_seconds / static_cast<double>(audit.decisions);
}

void build_faults(FaultProfile& faults, const FactorizationTrace& trace) {
  for (const FuCallRecord& call : trace.calls) {
    std::int64_t events = 0;
    for (std::size_t kind = 0; kind < call.fault_kinds.size(); ++kind) {
      faults.kind_counts[kind] += call.fault_kinds[kind];
      events += call.fault_kinds[kind];
    }
    if (events == 0) continue;
    // A call falls back at most once, after its last on-device attempt;
    // every other fault charged to it was answered by another attempt.
    const std::int64_t fallbacks = call.fell_back ? 1 : 0;
    faults.events += events;
    faults.fallbacks += fallbacks;
    faults.retries += events - fallbacks;
    faults.wasted_seconds += call.fault_wasted_seconds;
  }
}

void build_memory(ProfileReport& report,
                  std::span<const WorkerMemory> memory) {
  report.memory.assign(memory.begin(), memory.end());
  for (const WorkerMemory& m : memory) {
    report.arena_peak_bytes = std::max(report.arena_peak_bytes,
                                       m.arena_peak_bytes);
    report.device_pool_peak_bytes += m.device_pool_peak_bytes;
    report.pinned_pool_peak_bytes += m.pinned_pool_peak_bytes;
  }
}

void publish_gauges(const ProfileReport& report) {
  auto& metrics = MetricsRegistry::global();
  for (const PhaseTime& phase : report.phases) {
    metrics.gauge_set("profile.phase." + phase.name + "_seconds",
                      phase.wall_seconds);
  }
  metrics.gauge_set("profile.total_seconds", report.phases_total_seconds);
  metrics.gauge_set("profile.fu_calls", static_cast<double>(report.fu_calls));
  metrics.gauge_set("profile.fu_seconds", report.fu_seconds);
  metrics.gauge_set("profile.makespan_seconds", report.makespan_seconds);
  if (!report.workers.empty()) {
    metrics.gauge_set("profile.pool.workers",
                      static_cast<double>(report.workers.size()));
    metrics.gauge_set("profile.pool.utilization", report.pool_utilization);
    metrics.gauge_set("profile.pool.failed_steals",
                      static_cast<double>(report.total_failed_steals));
  }
  const PolicyAudit& audit = report.audit;
  metrics.gauge_set("policy.decisions", static_cast<double>(audit.decisions));
  if (audit.decisions > 0) {
    metrics.gauge_set("policy.agreement_rate", audit.agreement_rate);
    metrics.gauge_set("policy.regret_total_seconds",
                      audit.regret_total_seconds);
    metrics.gauge_set("policy.regret_mean_seconds", audit.regret_mean_seconds);
    metrics.gauge_set("policy.regret_max_seconds", audit.regret_max_seconds);
    metrics.gauge_set("policy.ideal_seconds", audit.ideal_seconds);
    metrics.gauge_set("policy.chosen_seconds", audit.chosen_seconds);
  }
  if (!report.memory.empty()) {
    metrics.gauge_set("mem.arena.peak_bytes",
                      static_cast<double>(report.arena_peak_bytes));
    metrics.gauge_set("mem.device_pool.peak_bytes",
                      static_cast<double>(report.device_pool_peak_bytes));
    metrics.gauge_set("mem.pinned_pool.peak_bytes",
                      static_cast<double>(report.pinned_pool_peak_bytes));
    std::int64_t device_allocs = 0, pinned_allocs = 0;
    for (const WorkerMemory& m : report.memory) {
      device_allocs += m.device_pool_charged_allocs;
      pinned_allocs += m.pinned_pool_charged_allocs;
    }
    metrics.gauge_set("mem.device_pool.charged_allocs",
                      static_cast<double>(device_allocs));
    metrics.gauge_set("mem.pinned_pool.charged_allocs",
                      static_cast<double>(pinned_allocs));
  }
  const FaultProfile& faults = report.faults;
  if (faults.events > 0) {
    metrics.gauge_set("profile.fault.events",
                      static_cast<double>(faults.events));
    metrics.gauge_set("profile.fault.fallbacks",
                      static_cast<double>(faults.fallbacks));
    metrics.gauge_set("profile.fault.wasted_seconds", faults.wasted_seconds);
  }
}

}  // namespace

ProfileReport build_profile_report(const ProfileReportInputs& inputs) {
  ProfileReport report;
  build_phases(report, TraceSession::global().events());
  if (inputs.pool_stats != nullptr && inputs.pool_stats->num_workers() > 0) {
    build_workers(report, *inputs.pool_stats, inputs.pool_wall_seconds);
  }
  if (inputs.trace != nullptr) {
    build_trace_sections(report, *inputs.trace, inputs.supernodes);
    build_audit(report.audit, *inputs.trace, inputs.executor_options);
    build_faults(report.faults, *inputs.trace);
  }
  build_memory(report, inputs.memory);
  if (enabled()) publish_gauges(report);
  return report;
}

void ProfileReport::write_json(std::ostream& os) const {
  os << "{\n  \"phases\": [";
  bool first = true;
  for (const PhaseTime& phase : phases) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(phase.name)
       << "\", \"wall_seconds\": " << full_double(phase.wall_seconds)
       << ", \"sim_seconds\": " << full_double(phase.sim_seconds) << "}";
    first = false;
  }
  os << "\n  ],\n  \"phases_total_seconds\": "
     << full_double(phases_total_seconds);

  os << ",\n  \"pool\": {\"wall_seconds\": " << full_double(pool_wall_seconds)
     << ", \"total_steals\": " << total_steals
     << ", \"total_failed_steals\": " << total_failed_steals
     << ", \"utilization\": " << full_double(pool_utilization)
     << ", \"workers\": [";
  first = true;
  for (const WorkerProfile& w : workers) {
    os << (first ? "\n" : ",\n") << "    {\"worker\": " << w.worker
       << ", \"tasks\": " << w.tasks << ", \"steals\": " << w.steals
       << ", \"failed_steals\": " << w.failed_steals
       << ", \"busy_seconds\": " << full_double(w.busy_seconds)
       << ", \"idle_seconds\": " << full_double(w.idle_seconds)
       << ", \"wall_seconds\": " << full_double(w.wall_seconds)
       << ", \"utilization\": " << full_double(w.utilization) << "}";
    first = false;
  }
  os << (workers.empty() ? "]}" : "\n  ]}");

  os << ",\n  \"fu\": {\"calls\": " << fu_calls
     << ", \"seconds\": " << full_double(fu_seconds)
     << ", \"assembly_seconds\": " << full_double(assembly_seconds)
     << ", \"makespan_seconds\": " << full_double(makespan_seconds) << "}";

  os << ",\n  \"memory\": {\"arena_peak_bytes\": " << arena_peak_bytes
     << ", \"device_pool_peak_bytes\": " << device_pool_peak_bytes
     << ", \"pinned_pool_peak_bytes\": " << pinned_pool_peak_bytes
     << ", \"workers\": [";
  first = true;
  for (const WorkerMemory& m : memory) {
    os << (first ? "\n" : ",\n") << "    {\"worker\": " << m.worker
       << ", \"arena_peak_bytes\": " << m.arena_peak_bytes
       << ", \"device_pool_peak_bytes\": " << m.device_pool_peak_bytes
       << ", \"pinned_pool_peak_bytes\": " << m.pinned_pool_peak_bytes
       << ", \"device_pool_charged_allocs\": " << m.device_pool_charged_allocs
       << ", \"pinned_pool_charged_allocs\": " << m.pinned_pool_charged_allocs
       << "}";
    first = false;
  }
  os << (memory.empty() ? "]}" : "\n  ]}");

  os << ",\n  \"levels\": [";
  first = true;
  for (const LevelProfile& level : levels) {
    os << (first ? "\n" : ",\n") << "    {\"level\": " << level.level
       << ", \"calls\": " << level.calls
       << ", \"fu_seconds\": " << full_double(level.fu_seconds)
       << ", \"ops\": " << full_double(level.ops) << "}";
    first = false;
  }
  os << (levels.empty() ? "]" : "\n  ]");

  os << ",\n  \"mk\": {\"bin\": " << mk_seconds.bin_size()
     << ", \"bins_x\": " << mk_seconds.bins_x()
     << ", \"bins_y\": " << mk_seconds.bins_y()
     << ", \"binned_calls\": " << mk_binned_calls << ", \"cells\": [";
  first = true;
  for (index_t by = 0; by < mk_seconds.bins_y(); ++by) {
    for (index_t bx = 0; bx < mk_seconds.bins_x(); ++bx) {
      if (mk_seconds.count_at(bx, by) == 0) continue;
      os << (first ? "\n" : ",\n") << "    {\"kx\": " << bx
         << ", \"my\": " << by << ", \"calls\": " << mk_seconds.count_at(bx, by)
         << ", \"seconds\": " << full_double(mk_seconds.at(bx, by)) << "}";
      first = false;
    }
  }
  os << (first ? "]}" : "\n  ]}");

  os << ",\n  \"policy_audit\": {\"decisions\": " << audit.decisions
     << ", \"agreements\": " << audit.agreements
     << ", \"agreement_rate\": " << full_double(audit.agreement_rate)
     << ", \"chosen_seconds\": " << full_double(audit.chosen_seconds)
     << ", \"ideal_seconds\": " << full_double(audit.ideal_seconds)
     << ", \"regret_total_seconds\": "
     << full_double(audit.regret_total_seconds)
     << ", \"regret_mean_seconds\": " << full_double(audit.regret_mean_seconds)
     << ", \"regret_max_seconds\": " << full_double(audit.regret_max_seconds)
     << ", \"measured_seconds\": " << full_double(audit.measured_seconds)
     << ", \"predicted_calls\": " << audit.predicted_calls
     << ", \"prediction_abs_error_seconds\": "
     << full_double(audit.prediction_abs_error_seconds)
     << ", \"policy_counts\": [" << audit.policy_counts[0] << ", "
     << audit.policy_counts[1] << ", " << audit.policy_counts[2] << ", "
     << audit.policy_counts[3] << ", " << audit.policy_counts[4] << "]}";

  os << ",\n  \"fault_audit\": {\"events\": " << faults.events
     << ", \"retries\": " << faults.retries
     << ", \"fallbacks\": " << faults.fallbacks
     << ", \"wasted_seconds\": " << full_double(faults.wasted_seconds)
     << ", \"kinds\": {";
  first = true;
  for (std::size_t i = 0; i < faults.kind_counts.size(); ++i) {
    if (faults.kind_counts[i] == 0) continue;
    os << (first ? "" : ", ") << "\""
       << fault_kind_name(static_cast<FaultKind>(i))
       << "\": " << faults.kind_counts[i];
    first = false;
  }
  os << "}}";
  os << "\n}\n";
}

void ProfileReport::print(std::ostream& os) const {
  {
    Table table("Profile: pipeline phases", {"phase", "wall_s", "share"});
    for (const PhaseTime& phase : phases) {
      const double share = phases_total_seconds > 0.0
                               ? phase.wall_seconds / phases_total_seconds
                               : 0.0;
      table.add_row({phase.name, phase.wall_seconds, share});
    }
    table.add_row({std::string("total"), phases_total_seconds, 1.0});
    table.print(os);
  }
  if (!workers.empty()) {
    Table table("Profile: pool workers",
                {"worker", "tasks", "steals", "failed", "busy_s", "idle_s",
                 "wall_s", "util"});
    for (const WorkerProfile& w : workers) {
      table.add_row({static_cast<index_t>(w.worker), w.tasks, w.steals,
                     w.failed_steals, w.busy_seconds, w.idle_seconds,
                     w.wall_seconds, w.utilization});
    }
    table.print(os);
    os << "pool wall " << full_double(pool_wall_seconds) << " s, utilization "
       << full_double(pool_utilization) << ", steals " << total_steals
       << " (+" << total_failed_steals << " failed)\n";
  }
  if (!levels.empty()) {
    Table table("Profile: etree levels (0 = roots)",
                {"level", "calls", "fu_s", "ops"});
    for (const LevelProfile& level : levels) {
      table.add_row({level.level, level.calls, level.fu_seconds,
                     format_sci(level.ops)});
    }
    table.print(os);
  }
  if (fu_calls > 0) {
    os << "F-U time by (m, k), bin " << mk_seconds.bin_size()
       << " (x = k, y = m):\n";
    mk_seconds.print_ascii(os);
  }
  if (!memory.empty()) {
    Table table("Profile: memory high water",
                {"worker", "arena_B", "dev_pool_B", "pinned_B", "dev_allocs",
                 "pin_allocs"});
    for (const WorkerMemory& m : memory) {
      table.add_row({static_cast<index_t>(m.worker), m.arena_peak_bytes,
                     m.device_pool_peak_bytes, m.pinned_pool_peak_bytes,
                     m.device_pool_charged_allocs,
                     m.pinned_pool_charged_allocs});
    }
    table.print(os);
  }
  {
    Table table("Profile: policy audit vs P_IH", {"quantity", "value"});
    table.add_row({std::string("decisions"), audit.decisions});
    table.add_row({std::string("agreement_rate"), audit.agreement_rate});
    table.add_row({std::string("chosen_seconds"), audit.chosen_seconds});
    table.add_row({std::string("ideal_seconds"), audit.ideal_seconds});
    table.add_row(
        {std::string("regret_total_seconds"), audit.regret_total_seconds});
    table.add_row(
        {std::string("regret_mean_seconds"), audit.regret_mean_seconds});
    table.add_row(
        {std::string("regret_max_seconds"), audit.regret_max_seconds});
    for (int p = 0; p < 4; ++p) {
      table.add_row({"calls_P" + std::to_string(p + 1),
                     audit.policy_counts[static_cast<std::size_t>(p)]});
    }
    table.add_row({std::string("calls_Batched"), audit.policy_counts[4]});
    table.print(os);
  }
  if (faults.events > 0) {
    Table table("Profile: fault regret", {"quantity", "value"});
    table.add_row({std::string("events"), faults.events});
    for (std::size_t i = 0; i < faults.kind_counts.size(); ++i) {
      if (faults.kind_counts[i] == 0) continue;
      table.add_row({std::string(fault_kind_name(static_cast<FaultKind>(i))),
                     faults.kind_counts[i]});
    }
    table.add_row({std::string("retries"), faults.retries});
    table.add_row({std::string("fallbacks"), faults.fallbacks});
    table.add_row({std::string("wasted_seconds"), faults.wasted_seconds});
    table.print(os);
  }
}

}  // namespace mfgpu::obs
