#include "obs/schedule_record.hpp"

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

Solver recorded(const GridProblem& p, SolverOptions options) {
  options.record_schedule = true;
  return Solver(p.matrix, options);
}

// Structural invariants any well-formed record must satisfy, regardless of
// which driver produced it.
void expect_well_formed(const obs::ScheduleRecord& rec) {
  ASSERT_FALSE(rec.empty());
  ASSERT_EQ(rec.parent.size(), static_cast<std::size_t>(rec.num_snodes));
  ASSERT_EQ(rec.producer.size(), static_cast<std::size_t>(rec.num_snodes));

  std::set<index_t> produced;
  for (std::size_t l = 0; l < rec.lanes.size(); ++l) {
    const auto& lane = rec.lanes[l];
    EXPECT_EQ(lane.worker, static_cast<int>(l));
    EXPECT_GE(lane.final_now, lane.start_now);
    double prev_end = lane.start_now;
    std::size_t prev_ev = 0;
    for (const auto& task : lane.tasks) {
      // Tasks tile the lane in time and event order.
      EXPECT_GE(task.t_begin, prev_end);
      EXPECT_GE(task.t_end, task.t_begin);
      EXPECT_GE(task.ev_begin, prev_ev);
      EXPECT_LE(task.ev_begin, task.ev_end);
      EXPECT_LE(task.ev_end, lane.events.size());
      prev_end = task.t_end;
      prev_ev = task.ev_end;
      if (task.is_work()) {
        EXPECT_FALSE(task.members.empty());
        EXPECT_EQ(task.member_policy.size(), task.members.size());
        EXPECT_LE(task.exec_begin, task.exec_end);
        EXPECT_GE(task.exec_begin, task.ev_begin);
        EXPECT_LE(task.exec_end, task.ev_end);
        for (const index_t snode : task.members) {
          EXPECT_GE(snode, 0);
          EXPECT_LT(snode, rec.num_snodes);
          produced.insert(snode);
        }
      }
    }
    // Every event's operands are finite and non-negative durations.
    for (const auto& ev : lane.events) {
      if (ev.op == obs::SchedOp::Add) {
        EXPECT_GE(ev.a, 0.0);
      }
      if (ev.op == obs::SchedOp::Enqueue || ev.op == obs::SchedOp::SyncCopy) {
        EXPECT_GE(ev.b, 0.0);
        EXPECT_GE(ev.c, ev.a);
      }
    }
  }
  // Every supernode was produced by exactly one work task, and the
  // producer map points at a task covering it.
  EXPECT_EQ(produced.size(), static_cast<std::size_t>(rec.num_snodes));
  for (index_t s = 0; s < rec.num_snodes; ++s) {
    const auto ref = rec.producer[static_cast<std::size_t>(s)];
    ASSERT_GE(ref.lane, 0);
    ASSERT_GE(ref.task, 0);
    const auto& task =
        rec.lanes[static_cast<std::size_t>(ref.lane)]
            .tasks[static_cast<std::size_t>(ref.task)];
    bool covers = false;
    for (const index_t snode : task.members) {
      covers |= snode == s;
    }
    EXPECT_TRUE(covers) << "snode " << s;
  }
}

TEST(ScheduleRecordTest, SerialRecordIsWellFormed) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = recorded(p, options);
  const auto& rec = solver.schedule();
  EXPECT_FALSE(rec.parallel);
  EXPECT_FALSE(rec.batched);
  EXPECT_EQ(rec.lanes.size(), 1u);
  expect_well_formed(rec);
  EXPECT_GT(rec.total_events(), rec.total_tasks());
}

TEST(ScheduleRecordTest, ParallelRecordIsWellFormed) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.workers.assign(4, WorkerSpec{.has_gpu = true});
  const Solver solver = recorded(p, options);
  const auto& rec = solver.schedule();
  EXPECT_TRUE(rec.parallel);
  EXPECT_EQ(rec.lanes.size(), 4u);
  for (const auto& lane : rec.lanes) EXPECT_TRUE(lane.has_gpu);
  expect_well_formed(rec);
}

TEST(ScheduleRecordTest, BatchedRecordGroupsMembers) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.batching = true;
  const Solver solver = recorded(p, options);
  const auto& rec = solver.schedule();
  EXPECT_TRUE(rec.batched);
  expect_well_formed(rec);
  bool multi_member = false;
  for (const auto& task : rec.lanes[0].tasks)
    if (task.kind == obs::TaskKind::Batch) {
      EXPECT_GE(task.batch, 0);
      multi_member |= task.members.size() > 1;
    }
  EXPECT_TRUE(multi_member);
}

TEST(ScheduleRecordTest, JoinEventsFollowEliminationTree) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = recorded(p, options);
  const auto& rec = solver.schedule();

  std::set<index_t> joined;
  for (const auto& lane : rec.lanes)
    for (const auto& ev : lane.events)
      if (ev.op == obs::SchedOp::Join) {
        ASSERT_GE(ev.dep, 0);
        ASSERT_LT(ev.dep, rec.num_snodes);
        joined.insert(ev.dep);
      }
  // Every non-root supernode's update matrix is joined exactly where the
  // elimination tree says: children with a parent are consumed, roots never.
  for (index_t s = 0; s < rec.num_snodes; ++s) {
    const bool has_parent = rec.parent[static_cast<std::size_t>(s)] >= 0;
    EXPECT_EQ(joined.count(s) > 0, has_parent) << "snode " << s;
  }
}

TEST(ScheduleRecordTest, ReadyEventPerSupernode) {
  const GridProblem p = make_laplacian_3d(5, 5, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = recorded(p, options);
  const auto& rec = solver.schedule();
  std::set<index_t> ready;
  for (const auto& lane : rec.lanes)
    for (const auto& ev : lane.events)
      if (ev.op == obs::SchedOp::Ready) ready.insert(ev.dep);
  EXPECT_EQ(ready.size(), static_cast<std::size_t>(rec.num_snodes));
}

TEST(ScheduleRecordTest, WriteJsonEmitsTaskSchedule) {
  const GridProblem p = make_laplacian_3d(4, 4, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver = recorded(p, options);
  std::ostringstream os;
  solver.schedule().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"makespan\""), std::string::npos);
  EXPECT_NE(json.find("\"lanes\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"front\""), std::string::npos);
}

TEST(ScheduleRecordTest, RecordingOffKeepsMakespanIdentical) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver plain(p.matrix, options);
  const Solver traced = recorded(p, options);
  // The recorder observes the fold; it must not perturb it.
  EXPECT_EQ(plain.factor_time(), traced.factor_time());
}

}  // namespace
}  // namespace mfgpu
