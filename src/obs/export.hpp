// Exporters for the observability layer.
//
// - write_chrome_trace: Chrome trace-event JSON (the format Perfetto and
//   chrome://tracing load). Spans become "X" complete events on pid 1
//   (host wall clock); spans that carried a simulated clock are mirrored
//   as a second timeline on pid 2 (simulated seconds), so both time
//   domains are visible in one file.
// - write_metrics_json / write_metrics_csv: dumps of the metrics registry.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_session.hpp"

namespace mfgpu::obs {

/// `thread_names` (optional, indexed by dense tid) labels the per-thread
/// lanes via thread_name metadata events; unnamed tids render "thread N".
void write_chrome_trace(std::ostream& os, const std::vector<SpanEvent>& events,
                        const std::vector<std::string>& thread_names = {});

/// Convenience: export the global session's current events and lane names.
void write_chrome_trace(std::ostream& os);

void write_metrics_json(std::ostream& os,
                        const MetricsRegistry::Snapshot& snapshot);
void write_metrics_csv(std::ostream& os,
                       const MetricsRegistry::Snapshot& snapshot);

/// JSON string escaping (shared with the writers; exposed for tests).
std::string json_escape(std::string_view text);

/// `value` printed with max_digits10 significant digits, so it reads back
/// to the same double (shared by every JSON writer).
std::string full_double(double value);

}  // namespace mfgpu::obs
