// Process-wide span recording for the observability layer.
//
// A span is one timed region of the pipeline (ordering, a symbolic phase,
// one factor-update call, one simulated kernel, ...). Spans are recorded
// per thread into thread-local buffers — appending never takes a lock — and
// merged on export. Each span carries its host wall-clock interval (for the
// Perfetto timeline) and, where a virtual clock was in scope, the simulated
// start/end times as well, so one trace shows both time domains.
//
// Everything is a no-op while the layer is disabled (see obs/obs.hpp): the
// span constructor is one relaxed atomic load and a branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/clock.hpp"

namespace mfgpu::obs {

/// Returns true when span/metric recording is on (relaxed load; safe to
/// call from any thread at any frequency).
bool enabled() noexcept;
/// Turn recording on/off process-wide. enable() also (re)stamps the wall
/// clock epoch that span timestamps are relative to.
void enable();
void disable();

/// One recorded span. `name` and `category` must be string literals (or
/// otherwise outlive the session) — recording never copies or allocates
/// per-event beyond the buffer slot itself.
struct SpanEvent {
  struct Arg {
    const char* name = nullptr;  ///< null = slot unused
    std::int64_t value = 0;
  };

  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;   ///< dense thread id assigned on first record
  int depth = 0;           ///< nesting depth within the recording thread
  std::int64_t start_ns = 0;  ///< host wall clock, relative to session epoch
  std::int64_t end_ns = 0;
  double sim_start = -1.0;  ///< simulated seconds; < 0 = no sim clock in scope
  double sim_end = -1.0;
  /// Request-scoped causality (obs/request_context.hpp): every span gets a
  /// process-unique id; parent_span links it to the innermost enclosing
  /// span (same thread) or to the bound request's admission span (across
  /// threads); request_id tags every span opened while a RequestContext is
  /// bound. All 0 when no request tracing is in play.
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t request_id = 0;
  Arg args[3];
};

/// The process-wide collection of recorded spans. Thread buffers register
/// themselves on a thread's first record (one mutex acquisition per thread
/// lifetime); `events()` merges them and must only be called while no other
/// thread is actively recording (the pipeline is quiescent).
class TraceSession {
 public:
  static TraceSession& global();

  /// Append one finished span to the calling thread's buffer (lock-free).
  void record(const SpanEvent& ev);

  /// Merged snapshot of all buffers, sorted by (tid, start, -end) so parent
  /// spans precede their children.
  std::vector<SpanEvent> events() const;

  /// Drop all recorded spans (buffers stay registered with their threads).
  /// Thread lane names persist — they describe the threads, not one run.
  void clear();

  /// Label the calling thread's trace lane (e.g. "pool worker 3"); the
  /// Chrome exporter emits it as thread_name metadata so the thread's spans
  /// land in a named tid row. Takes the registration mutex — call once per
  /// thread role, not per span.
  void set_current_thread_name(std::string name);

  /// Snapshot of the registered lane names, indexed by dense tid ("" =
  /// unnamed; the exporter falls back to "thread N").
  std::vector<std::string> thread_names() const;

  /// Nanoseconds of host wall clock since the session epoch.
  std::int64_t now_ns() const noexcept;

  /// Nesting depth counter of the calling thread (managed by ScopedSpan).
  static int& thread_depth() noexcept;

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  TraceSession();
  struct Impl;
  Impl* impl_;  // leaked singleton state: safe during static destruction
};

/// RAII span: records [construction, destruction) into the global session.
/// Passing the in-scope SimClock also captures simulated start/end times.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name,
             const SimClock* sim = nullptr) {
    if (!obs::enabled()) return;
    begin(category, name, sim);
  }
  ~ScopedSpan() {
    if (active_) finish();
  }

  /// Attach up to three named integer arguments (names must be literals).
  void set_arg(int slot, const char* arg_name, std::int64_t value) noexcept {
    if (active_ && slot >= 0 && slot < 3) {
      ev_.args[slot] = SpanEvent::Arg{arg_name, value};
    }
  }

  bool active() const noexcept { return active_; }

  /// Process-unique id of this span (0 while inactive) — the parent link
  /// for manually recorded child spans.
  std::uint64_t id() const noexcept { return ev_.span_id; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* category, const char* name, const SimClock* sim);
  void finish();

  bool active_ = false;
  const SimClock* sim_ = nullptr;
  SpanEvent ev_;
};

/// Record one already-timed span directly (no RAII): for intervals whose
/// endpoints were observed at different places (a request's queue wait) or
/// for instant markers (request completions, injected faults — start ==
/// end).
/// `request_id`/`parent_span` stamp the causal links explicitly; the span
/// lands in the calling thread's lane. No-op (returns 0) while recording
/// is off; otherwise returns the new span's id.
std::uint64_t record_span(const char* category, const char* name,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::uint64_t request_id = 0,
                          std::uint64_t parent_span = 0);

}  // namespace mfgpu::obs
