#include "obs/obs.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <utility>
#include <vector>

namespace mfgpu::obs {
namespace {

/// Registry of active scopes so flush_exports() can reach them. Guarded by
/// its own mutex; scopes register on activation and unregister on finish
/// and on move (the moved-to scope takes the slot over).
std::mutex g_scopes_mu;
std::vector<ObsScope*>& active_scopes() {
  static std::vector<ObsScope*>* scopes = new std::vector<ObsScope*>;
  return *scopes;
}

void register_scope(ObsScope* scope) {
  std::lock_guard<std::mutex> lock(g_scopes_mu);
  active_scopes().push_back(scope);
}

void unregister_scope(ObsScope* scope) {
  std::lock_guard<std::mutex> lock(g_scopes_mu);
  auto& scopes = active_scopes();
  scopes.erase(std::remove(scopes.begin(), scopes.end(), scope),
               scopes.end());
}

void replace_scope(ObsScope* from, ObsScope* to) {
  std::lock_guard<std::mutex> lock(g_scopes_mu);
  for (ObsScope*& scope : active_scopes()) {
    if (scope == from) scope = to;
  }
}

/// "out.json" -> "out" (any other name is returned unchanged).
std::string strip_json_ext(const std::string& path) {
  const std::string ext = ".json";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size());
  }
  return path;
}

void write_file(const std::string& path, auto&& writer) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "obs: cannot open " << path << " for writing\n";
    return;
  }
  writer(os);
}

}  // namespace

ObsConfig make_config(const std::string& trace_path,
                      const std::string& metrics_path) {
  ObsConfig config;
  if (!trace_path.empty()) {
    config.trace_path = trace_path;
    const std::string base = strip_json_ext(config.trace_path);
    config.metrics_json_path = base + ".metrics.json";
    config.metrics_csv_path = base + ".metrics.csv";
  }
  if (!metrics_path.empty()) {
    config.metrics_json_path = metrics_path;
    config.metrics_csv_path = strip_json_ext(metrics_path) + ".csv";
  }
  return config;
}

ObsConfig config_from_env() {
  const char* trace = std::getenv("MFGPU_TRACE");
  const char* metrics = std::getenv("MFGPU_METRICS");
  return make_config(trace != nullptr ? trace : "",
                     metrics != nullptr ? metrics : "");
}

namespace {

/// Write the configured trace/metrics files from the current global state.
void export_files(const ObsConfig& config) {
  if (!config.trace_path.empty()) {
    write_file(config.trace_path, [](std::ostream& os) {
      write_chrome_trace(os);
    });
  }
  if (!config.metrics_json_path.empty() || !config.metrics_csv_path.empty()) {
    const MetricsRegistry::Snapshot snap = MetricsRegistry::global().snapshot();
    if (!config.metrics_json_path.empty()) {
      write_file(config.metrics_json_path,
                 [&](std::ostream& os) { write_metrics_json(os, snap); });
    }
    if (!config.metrics_csv_path.empty()) {
      write_file(config.metrics_csv_path,
                 [&](std::ostream& os) { write_metrics_csv(os, snap); });
    }
  }
}

}  // namespace

ObsScope::ObsScope(ObsConfig config) : config_(std::move(config)) {
  if (!config_.any()) return;
  active_ = true;
  TraceSession::global().clear();
  MetricsRegistry::global().clear();
  enable();
  register_scope(this);
}

ObsScope::ObsScope(ObsScope&& other) noexcept
    : active_(std::exchange(other.active_, false)),
      config_(std::move(other.config_)) {
  if (active_) replace_scope(&other, this);
}

ObsScope& ObsScope::operator=(ObsScope&& other) noexcept {
  if (this != &other) {
    finish();
    active_ = std::exchange(other.active_, false);
    config_ = std::move(other.config_);
    if (active_) replace_scope(&other, this);
    // finish() disabled recording; the adopted session is still live.
    if (active_) enable();
  }
  return *this;
}

ObsScope::~ObsScope() { finish(); }

void ObsScope::finish() {
  if (!active_) return;
  active_ = false;
  unregister_scope(this);
  disable();
  export_files(config_);
  TraceSession::global().clear();
  MetricsRegistry::global().clear();
}

void ObsScope::flush() {
  if (!active_) return;
  export_files(config_);
}

void flush_exports() {
  // Snapshot under the lock, export outside it: export_files reads the
  // trace session and can take noticeable time for large traces.
  std::vector<ObsScope*> scopes;
  {
    std::lock_guard<std::mutex> lock(g_scopes_mu);
    scopes = active_scopes();
  }
  for (ObsScope* scope : scopes) scope->flush();
}

}  // namespace mfgpu::obs
