#include "obs/export.hpp"

#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <set>

namespace mfgpu::obs {
namespace {

/// Microsecond timestamp with nanosecond resolution kept.
std::string us_from_ns(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string us_from_sim_seconds(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  return buf;
}

void write_args(std::ostream& os, const SpanEvent& ev, bool sim_track) {
  os << "\"args\":{";
  bool first = true;
  auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };
  for (const auto& arg : ev.args) {
    if (arg.name == nullptr) continue;
    comma();
    os << '"' << json_escape(arg.name) << "\":" << arg.value;
  }
  // Request-scoped causality: parent-linked span ids let trace consumers
  // rebuild each request's causal tree (the chaos tests do exactly that).
  if (ev.span_id != 0) {
    comma();
    os << "\"span_id\":" << ev.span_id;
  }
  if (ev.parent_span != 0) {
    comma();
    os << "\"parent_span\":" << ev.parent_span;
  }
  if (ev.request_id != 0) {
    comma();
    os << "\"request_id\":" << ev.request_id;
  }
  if (ev.sim_start >= 0.0 && !sim_track) {
    comma();
    os << "\"sim_start_s\":" << full_double(ev.sim_start);
    comma();
    os << "\"sim_end_s\":" << full_double(ev.sim_end);
  }
  os << '}';
}

void write_complete_event(std::ostream& os, const SpanEvent& ev, int pid) {
  const bool sim_track = pid == 2;
  os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << ev.tid
     << ",\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
     << json_escape(ev.category) << "\",\"ts\":";
  if (sim_track) {
    os << us_from_sim_seconds(ev.sim_start) << ",\"dur\":"
       << us_from_sim_seconds(std::max(0.0, ev.sim_end - ev.sim_start));
  } else {
    os << us_from_ns(ev.start_ns) << ",\"dur\":"
       << us_from_ns(std::max<std::int64_t>(0, ev.end_ns - ev.start_ns));
  }
  os << ',';
  write_args(os, ev, sim_track);
  os << '}';
}

void write_metadata(std::ostream& os, int pid, const char* what,
                    std::int64_t tid, const std::string& value) {
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"name\":\"" << what << "\",";
  if (tid >= 0) os << "\"tid\":" << tid << ',';
  os << "\"args\":{\"name\":\"" << json_escape(value) << "\"}}";
}

}  // namespace

std::string full_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  return buf;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<SpanEvent>& events,
                        const std::vector<std::string>& thread_names) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  std::set<std::uint32_t> tids;
  bool any_sim = false;
  for (const auto& ev : events) {
    tids.insert(ev.tid);
    any_sim = any_sim || ev.sim_start >= 0.0;
  }
  sep();
  write_metadata(os, 1, "process_name", -1, "mfgpu (host wall clock)");
  if (any_sim) {
    sep();
    write_metadata(os, 2, "process_name", -1, "mfgpu (simulated time)");
  }
  for (const std::uint32_t tid : tids) {
    const bool named =
        tid < thread_names.size() && !thread_names[tid].empty();
    const std::string label =
        named ? thread_names[tid] : "thread " + std::to_string(tid);
    sep();
    write_metadata(os, 1, "thread_name", tid, label);
    if (any_sim) {
      sep();
      write_metadata(os, 2, "thread_name", tid, label);
    }
  }

  for (const auto& ev : events) {
    sep();
    write_complete_event(os, ev, 1);
    if (ev.sim_start >= 0.0 && ev.sim_end >= ev.sim_start) {
      sep();
      write_complete_event(os, ev, 2);
    }
  }

  // Flow events stitch a request's causal tree across thread lanes: for
  // every span whose parent lives on a DIFFERENT thread (admission span ->
  // session queue wait and completion), emit an "s"/"f" arrow from the
  // parent's end to the child's start. Same-thread links are already
  // visible through nesting.
  std::map<std::uint64_t, const SpanEvent*> by_span_id;
  for (const auto& ev : events) {
    if (ev.span_id != 0) by_span_id.emplace(ev.span_id, &ev);
  }
  for (const auto& ev : events) {
    if (ev.parent_span == 0 || ev.request_id == 0) continue;
    const auto parent_it = by_span_id.find(ev.parent_span);
    if (parent_it == by_span_id.end()) continue;
    const SpanEvent& parent = *parent_it->second;
    if (parent.tid == ev.tid) continue;
    sep();
    os << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << parent.tid
       << ",\"name\":\"request\",\"cat\":\"request\",\"id\":" << ev.span_id
       << ",\"ts\":" << us_from_ns(parent.end_ns) << '}';
    sep();
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"name\":\"request\",\"cat\":\"request\",\"id\":" << ev.span_id
       << ",\"ts\":" << us_from_ns(ev.start_ns) << '}';
  }
  os << "\n]}\n";
}

void write_chrome_trace(std::ostream& os) {
  write_chrome_trace(os, TraceSession::global().events(),
                     TraceSession::global().thread_names());
}

void write_metrics_json(std::ostream& os,
                        const MetricsRegistry::Snapshot& snapshot) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << full_double(value);
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << full_double(value);
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"count\": " << hist.count << ", \"sum\": "
       << full_double(hist.sum) << ", \"min\": " << full_double(hist.min)
       << ", \"max\": " << full_double(hist.max) << ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < HistogramData::kBuckets; ++b) {
      const std::int64_t n = hist.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << "[" << b << ", " << n << "]";
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void write_metrics_csv(std::ostream& os,
                       const MetricsRegistry::Snapshot& snapshot) {
  os << "kind,name,value,count,sum,min,max\n";
  for (const auto& [name, value] : snapshot.counters) {
    os << "counter," << name << ',' << full_double(value) << ",,,,\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    os << "gauge," << name << ',' << full_double(value) << ",,,,\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    os << "histogram," << name << ",," << hist.count << ','
       << full_double(hist.sum) << ',' << full_double(hist.min) << ','
       << full_double(hist.max) << '\n';
  }
}

}  // namespace mfgpu::obs
