// Request-scoped tracing: the causal identity a serving request carries
// through the whole serve -> solver -> executor stack.
//
// A RequestContext is allocated once at SolverService admission (request
// id, admission timestamp, the admission span's id as the causal root) and
// bound to whichever thread is currently doing that request's work via the
// RAII RequestScope. While a context is bound:
//
//   - every ScopedSpan the thread opens is stamped with the request id and
//     parent-linked (top of the thread's open-span stack, or the request's
//     root span when the stack is empty), so the Chrome-trace export can
//     render the request's full causal tree across threads;
//   - F-U trace records (FuCallRecord::request_id) and injected gpusim
//     faults are attributed to the request (obs::current_request_id());
//   - factorize_parallel re-binds the context inside its pool workers, so
//     even a multi-threaded numeric phase stays attributed.
//
// Binding is a thread-local pointer swap — no locks, no allocation — and
// id allocation is one relaxed fetch_add, so the request path stays cheap
// whether or not recording is on.
#pragma once

#include <cstdint>

namespace mfgpu::obs {

/// Identity and admission-time facts of one serving request. Immutable
/// after admission; owned by the serving layer, referenced (not copied) by
/// RequestScope bindings.
struct RequestContext {
  std::uint64_t request_id = 0;  ///< process-unique, nonzero once allocated
  std::int64_t admitted_ns = 0;  ///< TraceSession::now_ns() at admission
  std::uint64_t root_span = 0;   ///< admission span id — the causal root
};

/// Process-unique id mints (relaxed atomic counters starting at 1).
std::uint64_t next_request_id() noexcept;
std::uint64_t next_span_id() noexcept;

/// The context bound to the calling thread (nullptr when none).
const RequestContext* current_request() noexcept;
/// Shorthand: bound request id, or 0 when no context is bound.
std::uint64_t current_request_id() noexcept;
/// Parent for the next span the calling thread opens: the innermost open
/// span, or the bound request's root span, or 0.
std::uint64_t current_parent_span() noexcept;

/// RAII binding of a RequestContext to the calling thread. Nestable
/// (restores the previous binding on destruction); binding nullptr
/// temporarily detaches the thread from any request.
class RequestScope {
 public:
  explicit RequestScope(const RequestContext* context) noexcept;
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  const RequestContext* previous_;
};

/// Open-span stack bookkeeping for ScopedSpan (internal; exposed so
/// trace_session.cpp can push/pop without another TU-level thread_local).
void push_open_span(std::uint64_t span_id);
void pop_open_span() noexcept;

}  // namespace mfgpu::obs
