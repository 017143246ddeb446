#include "obs/whatif.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_record.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

// obs/ names policies by index only; the batched slot must track the enum.
static_assert(obs::CriticalPathReport::kBatchedPolicy ==
              static_cast<std::size_t>(Policy::Batched));

// The acceptance bar for the flight recorder: replaying the recorded event
// stream with identity scales must reproduce the live virtual makespan
// BITWISE (EXPECT_EQ on doubles, not EXPECT_NEAR) for every driver.

Solver factored(const GridProblem& p, SolverOptions options) {
  options.record_schedule = true;
  return Solver(p.matrix, options);
}

void expect_null_replay_exact(const Solver& solver) {
  const obs::ScheduleRecord& rec = solver.schedule();
  ASSERT_FALSE(rec.empty());
  ASSERT_GT(rec.makespan, 0.0);

  const obs::ReplayResult replay = obs::replay_exact(rec);
  EXPECT_EQ(replay.live_makespan, rec.makespan);
  EXPECT_EQ(replay.makespan, rec.makespan);
  ASSERT_EQ(replay.lane_final.size(), rec.lanes.size());
  for (std::size_t l = 0; l < rec.lanes.size(); ++l) {
    EXPECT_EQ(replay.lane_final[l], rec.lanes[l].final_now) << "lane " << l;
  }

  const obs::WhatIfResult null_wi = obs::whatif_replay(rec, obs::WhatIfKnobs{});
  EXPECT_EQ(null_wi.makespan, rec.makespan);
  EXPECT_EQ(null_wi.recorded_makespan, rec.makespan);
  EXPECT_EQ(null_wi.speedup, 1.0);
}

TEST(ScheduleWhatIfTest, NullReplayExactSerialHostOnly) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::Serial;
  expect_null_replay_exact(factored(p, options));
}

TEST(ScheduleWhatIfTest, NullReplayExactSerialHybridGpu) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  expect_null_replay_exact(factored(p, options));
}

TEST(ScheduleWhatIfTest, NullReplayExactModelHybrid) {
  const GridProblem p = make_laplacian_2d_9pt(18, 17);
  SolverOptions options;
  options.mode = SolverMode::ModelHybrid;
  expect_null_replay_exact(factored(p, options));
}

TEST(ScheduleWhatIfTest, NullReplayExactBatched) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.batching = true;
  const Solver solver = factored(p, options);
  const obs::ScheduleRecord& rec = solver.schedule();
  EXPECT_TRUE(rec.batched);
  bool saw_batch = false;
  for (const auto& lane : rec.lanes)
    for (const auto& task : lane.tasks)
      saw_batch |= task.kind == obs::TaskKind::Batch;
  EXPECT_TRUE(saw_batch);
  expect_null_replay_exact(solver);
}

class ScheduleWhatIfParallel : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleWhatIfParallel, NullReplayExactCpuWorkers) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::Serial;
  options.workers = cpu_workers(GetParam());
  const Solver solver = factored(p, options);
  const obs::ScheduleRecord& rec = solver.schedule();
  EXPECT_EQ(rec.lanes.size(), static_cast<std::size_t>(GetParam()));
  // One worker is the serial walk on the calling thread, not a pool run.
  EXPECT_EQ(rec.parallel, GetParam() > 1);
  expect_null_replay_exact(solver);
}

TEST_P(ScheduleWhatIfParallel, NullReplayExactGpuWorkers) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.workers.assign(static_cast<std::size_t>(GetParam()),
                         WorkerSpec{.has_gpu = true});
  expect_null_replay_exact(factored(p, options));
}

INSTANTIATE_TEST_SUITE_P(Workers, ScheduleWhatIfParallel,
                         ::testing::Values(1, 2, 4, 8));

TEST(ScheduleWhatIfTest, NullReplayExactMixedCpuGpuWorkers) {
  const GridProblem p = make_laplacian_3d(6, 5, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.workers = {WorkerSpec{.has_gpu = true}, WorkerSpec{.has_gpu = false},
                     WorkerSpec{.has_gpu = true}, WorkerSpec{.has_gpu = false}};
  expect_null_replay_exact(factored(p, options));
}

TEST(ScheduleWhatIfTest, RecordedMakespanMatchesFactorTime) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = factored(p, options);
  EXPECT_EQ(solver.schedule().makespan, solver.factor_time());
}

// Rate counterfactuals keep the exact engine and move the makespan in the
// right direction; the magnitude is gated by bench_whatif_accuracy.
TEST(ScheduleWhatIfTest, RateScalesMoveMakespanMonotonically) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = factored(p, options);
  const obs::ScheduleRecord& rec = solver.schedule();

  obs::WhatIfKnobs faster;
  faster.gpu_scale = 2.0;
  const obs::WhatIfResult f = obs::whatif_replay(rec, faster);
  EXPECT_LE(f.makespan, rec.makespan);

  obs::WhatIfKnobs slower;
  slower.transfer_scale = 0.5;
  const obs::WhatIfResult s = obs::whatif_replay(rec, slower);
  EXPECT_GE(s.makespan, rec.makespan);
  EXPECT_GT(s.makespan, 0.0);
}

TEST(ScheduleWhatIfTest, CriticalPathAttributionTelescopes) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = factored(p, options);

  const obs::CriticalPathReport report = solver.schedule_report();
  EXPECT_EQ(report.makespan, solver.schedule().makespan);
  double sum = report.idle_seconds;
  for (double s : report.class_seconds) {
    EXPECT_GE(s, -1e-15);
    sum += s;
  }
  EXPECT_NEAR(sum, report.makespan, 1e-12 * std::max(1.0, report.makespan));
  EXPECT_FALSE(report.spine.empty());
  ASSERT_FALSE(report.slack.empty());
  // Slack is reported ascending; the head of the list is on the critical
  // path (zero slack up to roundoff).
  EXPECT_NEAR(report.slack.front().slack, 0.0, 1e-9);
  for (std::size_t i = 1; i < report.slack.size(); ++i)
    EXPECT_LE(report.slack[i - 1].slack, report.slack[i].slack + 1e-15);
}

TEST(ScheduleWhatIfTest, CriticalPathTelescopesParallel) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.workers.assign(4, WorkerSpec{.has_gpu = true});
  const Solver solver = factored(p, options);

  const obs::CriticalPathReport report =
      obs::analyze_critical_path(solver.schedule());
  double sum = report.idle_seconds;
  for (double s : report.class_seconds) sum += s;
  EXPECT_NEAR(sum, report.makespan, 1e-12 * std::max(1.0, report.makespan));
  EXPECT_FALSE(report.spine.empty());
}

TEST(ScheduleWhatIfTest, ScheduleThrowsWithoutRecording) {
  const GridProblem p = make_laplacian_3d(4, 4, 4);
  const Solver solver(p.matrix, SolverOptions{});
  EXPECT_THROW(solver.schedule(), InvalidStateError);
  EXPECT_THROW(solver.schedule_report(), InvalidStateError);
}

TEST(ScheduleWhatIfTest, RefactorRefreshesRecord) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  Solver solver = factored(p, options);
  const double first = solver.schedule().makespan;
  solver.refactor(p.matrix);
  EXPECT_GT(solver.schedule().makespan, 0.0);
  expect_null_replay_exact(solver);
  EXPECT_EQ(solver.schedule().makespan, first);  // same values, same schedule
}

TEST(ScheduleWhatIfTest, MetricsEmittedUnderObsScope) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = factored(p, options);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.clear();
  obs::enable();
  (void)solver.schedule_report();
  obs::WhatIfKnobs knobs;
  knobs.gpu_scale = 2.0;
  (void)solver.schedule_whatif(knobs);
  const auto snap = metrics.snapshot();
  obs::disable();
  metrics.clear();

  EXPECT_EQ(snap.gauges.count("sched.cp.makespan_seconds"), 1u);
  EXPECT_EQ(snap.gauges.count("sched.cp.gpu.seconds"), 1u);
  EXPECT_EQ(snap.gauges.count("sched.cp.gpu.fraction"), 1u);
  EXPECT_EQ(snap.counters.count("whatif.predictions"), 1u);
  EXPECT_EQ(snap.gauges.count("whatif.last.makespan_seconds"), 1u);
  EXPECT_EQ(snap.gauges.count("whatif.last.speedup"), 1u);
}

}  // namespace
}  // namespace mfgpu
