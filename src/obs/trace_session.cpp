#include "obs/trace_session.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "obs/request_context.hpp"

namespace mfgpu::obs {
namespace {

std::atomic<bool> g_enabled{false};

using Clock = std::chrono::steady_clock;

std::atomic<std::int64_t> g_epoch_ns{0};

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void enable() {
  g_epoch_ns.store(wall_ns(), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

struct TraceSession::Impl {
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<SpanEvent> events;
  };

  std::mutex mu;  // guards registration and snapshot/clear
  std::vector<std::unique_ptr<ThreadBuf>> buffers;
  std::vector<std::string> names;  ///< lane name per tid ("" = unnamed)

  ThreadBuf& local() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<ThreadBuf>();
      buf = owned.get();
      std::lock_guard<std::mutex> lock(mu);
      buf->tid = static_cast<std::uint32_t>(buffers.size());
      buffers.push_back(std::move(owned));
    }
    return *buf;
  }
};

TraceSession::TraceSession() : impl_(new Impl) {}

TraceSession& TraceSession::global() {
  // Leaked on purpose: spans may be recorded from static destructors.
  static TraceSession* session = new TraceSession;
  return *session;
}

void TraceSession::record(const SpanEvent& ev) {
  Impl::ThreadBuf& buf = impl_->local();
  SpanEvent copy = ev;
  copy.tid = buf.tid;
  buf.events.push_back(copy);
}

std::vector<SpanEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<SpanEvent> merged;
  std::size_t total = 0;
  for (const auto& buf : impl_->buffers) total += buf->events.size();
  merged.reserve(total);
  for (const auto& buf : impl_->buffers) {
    merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.end_ns > b.end_ns;
                   });
  return merged;
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& buf : impl_->buffers) buf->events.clear();
}

void TraceSession::set_current_thread_name(std::string name) {
  const std::uint32_t tid = impl_->local().tid;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->names.size() <= tid) impl_->names.resize(tid + 1);
  impl_->names[tid] = std::move(name);
}

std::vector<std::string> TraceSession::thread_names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->names;
}

std::int64_t TraceSession::now_ns() const noexcept {
  return wall_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

int& TraceSession::thread_depth() noexcept {
  thread_local int depth = 0;
  return depth;
}

void ScopedSpan::begin(const char* category, const char* name,
                       const SimClock* sim) {
  active_ = true;
  sim_ = sim;
  ev_.name = name;
  ev_.category = category;
  ev_.start_ns = TraceSession::global().now_ns();
  if (sim != nullptr) ev_.sim_start = sim->now();
  ev_.depth = TraceSession::thread_depth()++;
  // Causal links: parent is the innermost open span on this thread, or the
  // bound request's admission span when this is the thread's outermost one.
  ev_.span_id = next_span_id();
  ev_.parent_span = current_parent_span();
  ev_.request_id = current_request_id();
  push_open_span(ev_.span_id);
}

void ScopedSpan::finish() {
  --TraceSession::thread_depth();
  pop_open_span();
  ev_.end_ns = TraceSession::global().now_ns();
  if (sim_ != nullptr) ev_.sim_end = sim_->now();
  // The session may have been disabled mid-span; keep the event anyway so
  // begun spans are always balanced in the output.
  TraceSession::global().record(ev_);
}

std::uint64_t record_span(const char* category, const char* name,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::uint64_t request_id,
                          std::uint64_t parent_span) {
  if (!enabled()) return 0;
  SpanEvent ev;
  ev.name = name;
  ev.category = category;
  ev.start_ns = start_ns;
  ev.end_ns = end_ns;
  ev.depth = TraceSession::thread_depth();
  ev.span_id = next_span_id();
  ev.parent_span = parent_span;
  ev.request_id = request_id;
  TraceSession::global().record(ev);
  return ev.span_id;
}

}  // namespace mfgpu::obs
