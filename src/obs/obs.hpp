// Umbrella header for the observability layer, plus the environment-driven
// activation used by every binary:
//
//   MFGPU_TRACE=out.json   -> record spans + metrics; at scope exit write
//                             out.json            (Chrome trace events)
//                             out.metrics.json    (metrics registry dump)
//                             out.metrics.csv
//   MFGPU_METRICS=m.json   -> metrics only (m.json and m.csv)
//
// When BOTH are set, MFGPU_TRACE wins the recording decision (spans are
// recorded and the trace file is written) while the metrics files go to the
// MFGPU_METRICS-derived paths instead of the trace-derived defaults.
//
// Binaries hold one ObsScope for the duration of main(); with neither
// variable set the scope is inert and every instrumentation site costs a
// single relaxed atomic load.
#pragma once

#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_session.hpp"

namespace mfgpu::obs {

struct ObsConfig {
  std::string trace_path;         ///< Chrome trace JSON ("" = no trace file)
  std::string metrics_json_path;  ///< "" = no metrics JSON
  std::string metrics_csv_path;   ///< "" = no metrics CSV
  /// Record spans/metrics even with no output file configured —
  /// for in-process consumers (Solver::profile_report(), tests).
  bool record = false;

  bool any() const {
    return record || !trace_path.empty() || !metrics_json_path.empty() ||
           !metrics_csv_path.empty();
  }
};

/// Builds the config from explicit trace/metrics destinations ("" = unset)
/// under the standard precedence: a trace path enables span recording and
/// derives default "<trace>.metrics.*" paths; a metrics path overrides the
/// metrics JSON/CSV destinations (trace recording is unaffected).
ObsConfig make_config(const std::string& trace_path,
                      const std::string& metrics_path);

/// Reads MFGPU_TRACE / MFGPU_METRICS into an ObsConfig (make_config's
/// precedence: when both are set the trace is recorded and written to
/// MFGPU_TRACE while the metrics files go to the MFGPU_METRICS paths).
ObsConfig config_from_env();

/// RAII activation: enables recording on construction (clearing any stale
/// spans/metrics), exports the configured files on destruction, then
/// disables recording again. Inert when the config is empty.
class ObsScope {
 public:
  ObsScope() = default;  ///< inert
  explicit ObsScope(ObsConfig config);
  static ObsScope from_env() { return ObsScope(config_from_env()); }

  ~ObsScope();
  ObsScope(ObsScope&& other) noexcept;
  ObsScope& operator=(ObsScope&& other) noexcept;

  bool active() const noexcept { return active_; }
  const ObsConfig& config() const noexcept { return config_; }

  /// Export now instead of at destruction (idempotent).
  void finish();

  /// Re-export the configured files NOW without ending the scope: spans and
  /// metrics recorded so far are written out, recording stays enabled, and
  /// the buffers are NOT cleared (a later finish() rewrites the files with
  /// the full picture). Call while the pipeline is quiescent — the same
  /// contract as TraceSession::events().
  void flush();

 private:
  bool active_ = false;
  ObsConfig config_;
};

/// Flush every active ObsScope (see ObsScope::flush). SolverService calls
/// this after draining its sessions, so requests served during shutdown
/// are present in MFGPU_TRACE/MFGPU_METRICS output even when the service
/// outlives main()'s export or the process exits without unwinding.
void flush_exports();

}  // namespace mfgpu::obs
