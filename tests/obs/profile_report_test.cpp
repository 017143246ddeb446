// End-to-end acceptance test for the factorization profiler: factor a
// generated 3-D problem on 4 workers under an active ObsScope and check the
// report's internal consistency (phase sum vs wall, per-worker busy+idle vs
// wall, (m, k) bin coverage) and the policy audit's regret guarantee
// (identically zero when the run dispatches via the ideal hybrid, >= 0
// otherwise).
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "multifrontal/parallel.hpp"
#include "obs/obs.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

std::vector<double> rhs_for_ones(const SparseSpd& a) {
  std::vector<double> ones(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(ones.size());
  a.multiply(ones, b);
  return b;
}

obs::ObsConfig recording_config() {
  obs::ObsConfig config;
  config.record = true;
  return config;
}

TEST(ProfileReportTest, IdealHybridParallelEndToEnd) {
  const GridProblem p = make_laplacian_3d(6, 6, 4);
  SolverOptions options;
  options.mode = SolverMode::IdealHybrid;
  options.workers = {{.has_gpu = true}, {.has_gpu = true},
                     {.has_gpu = true}, {.has_gpu = true}};

  obs::ObsScope scope(recording_config());
  const auto t0 = std::chrono::steady_clock::now();
  Solver solver(p.matrix, options);
  const auto x = solver.solve(rhs_for_ones(p.matrix));
  const auto t1 = std::chrono::steady_clock::now();
  const double pipeline_wall = std::chrono::duration<double>(t1 - t0).count();
  for (double v : x) ASSERT_NEAR(v, 1.0, 1e-8);

  const obs::ProfileReport report = solver.profile_report();
  const index_t nsup = solver.analysis().symbolic.num_supernodes();

  // Phase breakdown: every pipeline phase is present, and the phase times
  // sum to (approximately) the measured pipeline wall time. The spans are
  // disjoint slices of the pipeline, so the sum can never exceed the outer
  // wall measurement (plus timer slack); it must also account for the bulk
  // of it, since everything expensive runs inside a span.
  ASSERT_FALSE(report.phases.empty());
  double phase_sum = 0.0;
  std::vector<std::string> names;
  for (const auto& phase : report.phases) {
    EXPECT_GE(phase.wall_seconds, 0.0) << phase.name;
    phase_sum += phase.wall_seconds;
    names.push_back(phase.name);
  }
  EXPECT_DOUBLE_EQ(phase_sum, report.phases_total_seconds);
  for (const char* expected : {"ordering", "symbolic", "numeric", "solve"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing phase " << expected;
  }
  EXPECT_GT(report.phases_total_seconds, 0.0);
  EXPECT_LE(report.phases_total_seconds, pipeline_wall * 1.10 + 1e-3);
  EXPECT_GE(report.phases_total_seconds, pipeline_wall * 0.20);

  // Worker timelines: 4 workers, each with busy + idle == wall by
  // construction, utilization in [0, 1].
  ASSERT_EQ(report.workers.size(), 4u);
  EXPECT_GT(report.pool_wall_seconds, 0.0);
  for (const auto& w : report.workers) {
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
    EXPECT_NEAR(w.busy_seconds + w.idle_seconds, w.wall_seconds,
                1e-6 * w.wall_seconds + 1e-7);
    EXPECT_GE(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.0 + 1e-12);
  }
  const std::int64_t tasks_total =
      std::accumulate(report.workers.begin(), report.workers.end(),
                      std::int64_t{0},
                      [](std::int64_t acc, const obs::WorkerProfile& w) {
                        return acc + w.tasks;
                      });
  // Pool tasks are the plan's nodes: subtree groups and the supernodes
  // above the cut.
  ParallelFactorizeOptions plan_options;
  plan_options.workers = options.workers;
  const PoolPlan plan = plan_pool(solver.analysis(), plan_options);
  EXPECT_EQ(tasks_total, static_cast<std::int64_t>(plan.node_batch.size()));
  EXPECT_LT(tasks_total, nsup);
  EXPECT_GE(report.pool_utilization, 0.0);
  EXPECT_LE(report.pool_utilization, 1.0 + 1e-12);

  // (m, k) binning covers every factor-update call exactly once.
  EXPECT_EQ(report.fu_calls, nsup);
  EXPECT_EQ(report.mk_binned_calls, report.fu_calls);
  EXPECT_GT(report.fu_seconds, 0.0);
  index_t level_calls = 0;
  for (const auto& level : report.levels) level_calls += level.calls;
  EXPECT_EQ(level_calls, report.fu_calls);

  // Policy audit: with 4 GPU workers every call routes through the
  // dispatcher, and under the ideal hybrid the replayed dry-run oracle
  // reproduces the in-run decision exactly — zero regret, full agreement.
  EXPECT_EQ(report.audit.decisions, nsup);
  EXPECT_EQ(report.audit.agreements, report.audit.decisions);
  EXPECT_DOUBLE_EQ(report.audit.agreement_rate, 1.0);
  EXPECT_EQ(report.audit.regret_total_seconds, 0.0);
  EXPECT_EQ(report.audit.regret_max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.audit.chosen_seconds, report.audit.ideal_seconds);
  EXPECT_EQ(report.audit.predicted_calls, report.audit.decisions);
  std::int64_t policy_total = 0;
  for (const std::int64_t count : report.audit.policy_counts)
    policy_total += count;
  EXPECT_EQ(policy_total, report.audit.decisions);

  // Headline numbers were published as gauges while recording was active.
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  EXPECT_NE(snapshot.gauges.find("profile.fu_calls"), snapshot.gauges.end());
  EXPECT_NE(snapshot.gauges.find("policy.regret_total_seconds"),
            snapshot.gauges.end());
  EXPECT_NE(snapshot.gauges.find("policy.agreement_rate"),
            snapshot.gauges.end());

  // Both export formats produce non-trivial output.
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"phases\""), std::string::npos);
  EXPECT_NE(json.str().find("\"policy_audit\""), std::string::npos);
  std::ostringstream text;
  report.print(text);
  EXPECT_NE(text.str().find("ordering"), std::string::npos);
}

TEST(ProfileReportTest, BaselineHybridSerialRegretNonNegative) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;

  obs::ObsScope scope(recording_config());
  const Solver solver(p.matrix, options);
  const obs::ProfileReport report = solver.profile_report();

  EXPECT_TRUE(report.workers.empty());  // serial run: no pool statistics
  const index_t nsup = solver.analysis().symbolic.num_supernodes();
  EXPECT_EQ(report.audit.decisions, nsup);
  EXPECT_GE(report.audit.regret_total_seconds, 0.0);
  EXPECT_GE(report.audit.regret_max_seconds, 0.0);
  EXPECT_GE(report.audit.agreement_rate, 0.0);
  EXPECT_LE(report.audit.agreement_rate, 1.0);
  // chosen = ideal + regret holds by definition of the replay.
  EXPECT_NEAR(report.audit.chosen_seconds,
              report.audit.ideal_seconds + report.audit.regret_total_seconds,
              1e-12 * std::max(1.0, report.audit.chosen_seconds));
  // The baseline thresholds predict no times.
  EXPECT_EQ(report.audit.predicted_calls, 0);
}

TEST(ProfileReportTest, MemoryHighWaterPerWorkerAndAggregates) {
  // Large enough that the ideal hybrid sends at least one front through a
  // GPU policy, charging the simulated device pool.
  const GridProblem p = make_laplacian_3d(12, 12, 10);
  SolverOptions options;
  options.mode = SolverMode::IdealHybrid;
  options.workers = {{.has_gpu = true}, {.has_gpu = true}};

  obs::ObsScope scope(recording_config());
  const Solver solver(p.matrix, options);
  const obs::ProfileReport report = solver.profile_report();

  // One entry per pool worker, each with a real arena peak; device-pool
  // high waters are per worker (zero for workers whose fronts all stayed
  // on the host) but must be charged somewhere on this problem.
  ASSERT_EQ(report.memory.size(), 2u);
  std::int64_t arena_max = 0;
  std::int64_t device_sum = 0;
  std::int64_t pinned_sum = 0;
  std::int64_t charged = 0;
  for (const auto& m : report.memory) {
    EXPECT_GT(m.arena_peak_bytes, 0) << "worker " << m.worker;
    EXPECT_GE(m.device_pool_peak_bytes, 0) << "worker " << m.worker;
    arena_max = std::max(arena_max, m.arena_peak_bytes);
    device_sum += m.device_pool_peak_bytes;
    pinned_sum += m.pinned_pool_peak_bytes;
    charged += m.device_pool_charged_allocs;
  }
  EXPECT_EQ(report.arena_peak_bytes, arena_max);
  EXPECT_EQ(report.device_pool_peak_bytes, device_sum);
  EXPECT_EQ(report.pinned_pool_peak_bytes, pinned_sum);
  EXPECT_GT(report.device_pool_peak_bytes, 0);
  EXPECT_GT(charged, 0);

  // The high waters were published as gauges while recording was active.
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  EXPECT_NE(snapshot.gauges.find("mem.arena.peak_bytes"),
            snapshot.gauges.end());
  EXPECT_NE(snapshot.gauges.find("mem.device_pool.peak_bytes"),
            snapshot.gauges.end());

  // Both export formats carry the section.
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"memory\""), std::string::npos);
  std::ostringstream text;
  report.print(text);
  EXPECT_NE(text.str().find("memory high water"), std::string::npos);
}

TEST(ProfileReportTest, MemoryHighWaterSerialSingleEntry) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver(p.matrix, options);  // serial driver, no ObsScope
  const obs::ProfileReport report = solver.profile_report();
  ASSERT_EQ(report.memory.size(), 1u);
  EXPECT_EQ(report.memory[0].worker, 0);
  EXPECT_GT(report.memory[0].arena_peak_bytes, 0);
  // Fronts on this small grid all clear the baseline's GPU threshold from
  // below, so the device pool is legitimately uncharged.
  EXPECT_GE(report.memory[0].device_pool_peak_bytes, 0);
  EXPECT_EQ(report.arena_peak_bytes, report.memory[0].arena_peak_bytes);
}

TEST(ProfileReportTest, WithoutRecordingTraceSectionsStillFill) {
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver(p.matrix, options);  // no ObsScope
  const obs::ProfileReport report = solver.profile_report();
  // The span-derived phase breakdown is empty...
  EXPECT_DOUBLE_EQ(report.phases_total_seconds, 0.0);
  // ...but the trace-derived sections, the policy audit included, are not.
  EXPECT_EQ(report.fu_calls, solver.analysis().symbolic.num_supernodes());
  EXPECT_EQ(report.mk_binned_calls, report.fu_calls);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_EQ(report.audit.decisions, report.fu_calls);
}

/// The audit of one solver's report must cover exactly its own last
/// factorization: one decision per F-U call, whatever else ran in the
/// same recording scope before it.
void expect_audit_covers_last_factorization(const Solver& solver,
                                            const char* step) {
  const obs::ProfileReport report = solver.profile_report();
  SCOPED_TRACE(step);
  ASSERT_GT(report.fu_calls, 0);
  EXPECT_EQ(report.audit.decisions, report.fu_calls);
  EXPECT_EQ(std::accumulate(report.audit.policy_counts.begin(),
                            report.audit.policy_counts.end(),
                            std::int64_t{0}),
            report.fu_calls);
}

TEST(ProfileReportTest, AuditIsNotContaminatedByOtherFactorizations) {
  const GridProblem pa = make_laplacian_3d(5, 4, 4);
  const GridProblem pb = make_laplacian_3d(7, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::IdealHybrid;

  obs::ObsScope scope(recording_config());
  Solver a(pa.matrix, options);
  expect_audit_covers_last_factorization(a, "after A factored");
  const Solver b(pb.matrix, options);
  expect_audit_covers_last_factorization(b, "after B factored (B)");
  expect_audit_covers_last_factorization(a, "after B factored (A)");
  a.refactor(pa.matrix);
  expect_audit_covers_last_factorization(a, "after A refactored");
}

TEST(ProfileReportTest, ThrowsBeforeFactor) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const Solver solver = Solver::analyze(p.matrix);
  EXPECT_THROW(solver.profile_report(), InvalidStateError);
}

}  // namespace
}  // namespace mfgpu
