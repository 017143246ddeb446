#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

namespace mfgpu {
namespace {

/// Saves and restores one environment variable around a test.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    if (value != nullptr) {
      had_value_ = true;
      value_ = value;
    }
    ::unsetenv(name);
  }
  ~EnvVarGuard() {
    if (had_value_) {
      ::setenv(name_.c_str(), value_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  void set(const std::string& value) { ::setenv(name_.c_str(), value.c_str(), 1); }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string value_;
};

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(MakeConfigTest, TracePathDerivesMetricsPaths) {
  const obs::ObsConfig config = obs::make_config("run.json", "");
  EXPECT_EQ(config.trace_path, "run.json");
  EXPECT_EQ(config.metrics_json_path, "run.metrics.json");
  EXPECT_EQ(config.metrics_csv_path, "run.metrics.csv");
  EXPECT_TRUE(config.any());
}

TEST(MakeConfigTest, MetricsOnlyLeavesTraceUnset) {
  const obs::ObsConfig config = obs::make_config("", "m.json");
  EXPECT_TRUE(config.trace_path.empty());
  EXPECT_EQ(config.metrics_json_path, "m.json");
  EXPECT_EQ(config.metrics_csv_path, "m.csv");
  EXPECT_TRUE(config.any());
}

TEST(MakeConfigTest, BothSetTraceRecordsMetricsPathsOverride) {
  // The documented precedence: the trace path wins the recording decision,
  // the metrics path wins the metrics file destinations.
  const obs::ObsConfig config = obs::make_config("trace.json", "metrics.json");
  EXPECT_EQ(config.trace_path, "trace.json");
  EXPECT_EQ(config.metrics_json_path, "metrics.json");
  EXPECT_EQ(config.metrics_csv_path, "metrics.csv");
}

TEST(MakeConfigTest, EmptyInputsAreInert) {
  const obs::ObsConfig config = obs::make_config("", "");
  EXPECT_FALSE(config.any());
}

TEST(ConfigFromEnvTest, BothVariablesSetFollowsPrecedence) {
  EnvVarGuard trace_guard("MFGPU_TRACE");
  EnvVarGuard metrics_guard("MFGPU_METRICS");
  trace_guard.set("t.json");
  metrics_guard.set("m.json");
  const obs::ObsConfig config = obs::config_from_env();
  EXPECT_EQ(config.trace_path, "t.json");
  EXPECT_EQ(config.metrics_json_path, "m.json");
  EXPECT_EQ(config.metrics_csv_path, "m.csv");
}

TEST(ConfigFromEnvTest, TraceOnlyAndMetricsOnly) {
  EnvVarGuard trace_guard("MFGPU_TRACE");
  EnvVarGuard metrics_guard("MFGPU_METRICS");
  trace_guard.set("t.json");
  obs::ObsConfig config = obs::config_from_env();
  EXPECT_EQ(config.trace_path, "t.json");
  EXPECT_EQ(config.metrics_json_path, "t.metrics.json");

  EnvVarGuard trace_reset("MFGPU_TRACE");  // unsets it again
  metrics_guard.set("only.json");
  config = obs::config_from_env();
  EXPECT_TRUE(config.trace_path.empty());
  EXPECT_EQ(config.metrics_json_path, "only.json");
}

TEST(ConfigFromEnvTest, NeitherSetIsInert) {
  EnvVarGuard trace_guard("MFGPU_TRACE");
  EnvVarGuard metrics_guard("MFGPU_METRICS");
  const obs::ObsConfig config = obs::config_from_env();
  EXPECT_FALSE(config.any());
}

TEST(ObsScopeTest, RecordFlagEnablesWithoutFiles) {
  EXPECT_FALSE(obs::enabled());
  {
    obs::ObsConfig config;
    config.record = true;
    obs::ObsScope scope(config);
    EXPECT_TRUE(scope.active());
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

TEST(ObsScopeTest, InertConfigDoesNothing) {
  obs::ObsScope scope{obs::ObsConfig{}};
  EXPECT_FALSE(scope.active());
  EXPECT_FALSE(obs::enabled());
}

TEST(ObsScopeTest, MoveConstructionTransfersOwnership) {
  obs::ObsConfig config;
  config.record = true;
  obs::ObsScope a(config);
  ASSERT_TRUE(a.active());
  obs::ObsScope b(std::move(a));
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_TRUE(b.active());
  EXPECT_TRUE(obs::enabled());
  b.finish();
  EXPECT_FALSE(obs::enabled());
}

TEST(ObsScopeTest, MoveAssignmentFinishesTargetFirst) {
  const std::string metrics_path = testing::TempDir() + "obs_scope_move.json";
  std::remove(metrics_path.c_str());
  obs::ObsConfig file_config = obs::make_config("", metrics_path);
  obs::ObsScope target(file_config);
  ASSERT_TRUE(target.active());

  obs::ObsConfig record_config;
  record_config.record = true;
  obs::ObsScope source(record_config);
  target = std::move(source);
  // The assignment finished the old scope (writing its metrics files) and
  // adopted the new one's recording session.
  EXPECT_TRUE(file_exists(metrics_path));
  EXPECT_TRUE(target.active());
  EXPECT_FALSE(source.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(obs::enabled());
  target.finish();
  EXPECT_FALSE(obs::enabled());
  std::remove(metrics_path.c_str());
  std::remove((testing::TempDir() + "obs_scope_move.csv").c_str());
}

TEST(ObsScopeTest, DoubleFinishIsIdempotent) {
  const std::string metrics_path = testing::TempDir() + "obs_scope_finish.json";
  std::remove(metrics_path.c_str());
  obs::ObsScope scope(obs::make_config("", metrics_path));
  ASSERT_TRUE(scope.active());
  obs::MetricsRegistry::global().gauge_set("test.gauge", 1.0);
  scope.finish();
  EXPECT_FALSE(scope.active());
  EXPECT_FALSE(obs::enabled());
  ASSERT_TRUE(file_exists(metrics_path));
  std::remove(metrics_path.c_str());
  // A second finish must not re-export (the file stays deleted) or crash;
  // the destructor is a third no-op finish.
  scope.finish();
  EXPECT_FALSE(file_exists(metrics_path));
  std::remove((testing::TempDir() + "obs_scope_finish.csv").c_str());
}

TEST(ObsScopeTest, ConstructionClearsStaleState) {
  obs::enable();
  { obs::ScopedSpan stale("test", "stale_span"); }
  obs::MetricsRegistry::global().gauge_set("test.stale", 1.0);
  obs::disable();
  ASSERT_FALSE(obs::TraceSession::global().events().empty());
  obs::ObsConfig config;
  config.record = true;
  obs::ObsScope scope(config);
  // Stale spans/metrics from before the scope must not leak into this
  // recording session.
  EXPECT_TRUE(obs::TraceSession::global().events().empty());
  EXPECT_TRUE(obs::MetricsRegistry::global().snapshot().gauges.empty());
  scope.finish();
}

}  // namespace
}  // namespace mfgpu
