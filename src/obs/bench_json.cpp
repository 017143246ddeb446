#include "obs/bench_json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/export.hpp"
#include "support/json.hpp"

namespace mfgpu::obs {
namespace {

const char* direction_token(MetricDirection direction) {
  switch (direction) {
    case MetricDirection::LowerIsBetter: return "lower";
    case MetricDirection::HigherIsBetter: return "higher";
    case MetricDirection::Exact: return "exact";
    case MetricDirection::Info: return "info";
  }
  return "info";
}

MetricDirection direction_from_token(const std::string& token) {
  if (token == "lower") return MetricDirection::LowerIsBetter;
  if (token == "higher") return MetricDirection::HigherIsBetter;
  if (token == "exact") return MetricDirection::Exact;
  if (token == "info") return MetricDirection::Info;
  throw InvalidArgumentError("bench_json: unknown metric direction '" + token +
                             "'");
}

}  // namespace

const BenchMetric* BenchRecord::find_metric(
    std::string_view metric_name) const {
  for (const BenchMetric& metric : metrics) {
    if (metric.name == metric_name) return &metric;
  }
  return nullptr;
}

void write_bench_json(std::ostream& os, const BenchRecord& record) {
  os << "{\n  \"name\": \"" << json_escape(record.name) << "\",\n"
     << "  \"git_sha\": \"" << json_escape(record.git_sha) << "\",\n"
     << "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : record.config) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(key) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  os << (record.config.empty() ? "},\n" : "\n  },\n") << "  \"metrics\": [";
  first = true;
  for (const BenchMetric& metric : record.metrics) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(metric.name)
       << "\", \"value\": " << full_double(metric.value)
       << ", \"direction\": \"" << direction_token(metric.direction) << "\"}";
    first = false;
  }
  os << (record.metrics.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

BenchRecord parse_bench_json(std::string_view text) {
  const JsonValue root = JsonValue::parse(text);
  BenchRecord record;
  record.name = root.at("name").as_string();
  record.git_sha = root.at("git_sha").as_string();
  if (const JsonValue* config = root.find("config"); config != nullptr) {
    for (const auto& [key, value] : config->members()) {
      record.config.emplace_back(key, value.as_string());
    }
  }
  for (const JsonValue& entry : root.at("metrics").items()) {
    BenchMetric metric;
    metric.name = entry.at("name").as_string();
    metric.value = entry.at("value").as_number();
    metric.direction = direction_from_token(entry.at("direction").as_string());
    record.metrics.push_back(std::move(metric));
  }
  return record;
}

BenchRecord read_bench_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw InvalidArgumentError("bench_json: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_bench_json(buffer.str());
}

std::string current_git_sha() {
  if (const char* sha = std::getenv("MFGPU_GIT_SHA");
      sha != nullptr && sha[0] != '\0') {
    return sha;
  }
  return "unknown";
}

double CompareOptions::tolerance_for(std::string_view metric_name) const {
  for (const auto& [name, tolerance] : tolerance_overrides) {
    if (name == metric_name) return tolerance;
  }
  return default_tolerance;
}

BenchComparison compare_bench(const BenchRecord& baseline,
                              const BenchRecord& current,
                              const CompareOptions& options) {
  BenchComparison result;
  if (baseline.name != current.name) {
    result.notes.push_back("bench name mismatch: baseline '" + baseline.name +
                           "' vs current '" + current.name + "'");
    result.regressed = true;
  }
  for (const BenchMetric& base : baseline.metrics) {
    const BenchMetric* cur = current.find_metric(base.name);
    const bool gated = base.direction != MetricDirection::Info;
    if (cur == nullptr) {
      if (gated) {
        result.notes.push_back("gated metric '" + base.name +
                               "' missing from current run");
        result.regressed = true;
      }
      continue;
    }
    MetricComparison cmp;
    cmp.name = base.name;
    cmp.baseline = base.value;
    cmp.current = cur->value;
    cmp.direction = base.direction;
    cmp.tolerance = options.tolerance_for(base.name);
    const double scale = std::abs(base.value);
    cmp.relative_change =
        scale > 0.0 ? (cur->value - base.value) / scale : 0.0;
    if (gated) {
      // Zero baselines gate on the absolute difference instead.
      const double allowed = scale > 0.0 ? cmp.tolerance * scale : cmp.tolerance;
      const double delta = cur->value - base.value;
      switch (base.direction) {
        case MetricDirection::LowerIsBetter:
          cmp.regression = delta > allowed;
          break;
        case MetricDirection::HigherIsBetter:
          cmp.regression = -delta > allowed;
          break;
        case MetricDirection::Exact:
          cmp.regression = std::abs(delta) > allowed;
          break;
        case MetricDirection::Info:
          break;
      }
    }
    result.regressed = result.regressed || cmp.regression;
    result.metrics.push_back(std::move(cmp));
  }
  for (const BenchMetric& metric : current.metrics) {
    if (baseline.find_metric(metric.name) == nullptr) {
      result.notes.push_back("metric '" + metric.name +
                             "' has no baseline (not gated)");
    }
  }
  return result;
}

}  // namespace mfgpu::obs
