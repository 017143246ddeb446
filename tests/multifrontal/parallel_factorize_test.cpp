#include "multifrontal/parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "helpers/factor_bitwise.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "obs/schedule_record.hpp"
#include "ordering/minimum_degree.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

using testing_helpers::factors_bitwise_equal;

Analysis analyze_md(const SparseSpd& a) {
  return analyze(a, minimum_degree(build_graph(a)));
}

FactorizeResult factorize_serial(const Analysis& analysis) {
  PolicyExecutor executor(Policy::P1);
  FactorContext ctx;
  return factorize(analysis, executor, ctx);
}

double solve_residual(const SparseSpd& a, const Analysis& analysis,
                      const Factorization& factor) {
  const index_t n = a.n();
  std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(ones, b);
  const std::vector<double> x = solve(analysis, factor, b);
  double err = 0.0;
  for (double v : x) err = std::max(err, std::abs(v - 1.0));
  return err;
}

class ParallelFactorize : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFactorize, BitwiseEqualToSerialWithDeterministicReduction) {
  const int threads = GetParam();
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(7, 6, 5, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);
  const FactorizeResult serial = factorize_serial(analysis);

  ParallelFactorizeOptions options;
  options.num_threads = threads;
  options.deterministic_reduction = true;
  const FactorizeResult parallel = factorize_parallel(analysis, options);

  EXPECT_TRUE(factors_bitwise_equal(serial.factor, parallel.factor));
  EXPECT_EQ(serial.trace.calls.size(), parallel.trace.calls.size());
}

TEST_P(ParallelFactorize, NonDeterministicReductionIsRejected) {
  // The fixed child order is the only assembly order: asking for completion
  // order is an input error at both entry points, never a silent fallback.
  const int threads = GetParam();
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const Analysis analysis = analyze_md(p.matrix);

  ParallelFactorizeOptions options;
  options.num_threads = threads;
  options.deterministic_reduction = false;
  EXPECT_THROW(factorize_parallel(analysis, options), InvalidArgumentError);

  SolverOptions solver_options;
  solver_options.num_threads = threads;
  solver_options.deterministic_reduction = false;
  EXPECT_THROW(Solver::analyze(p.matrix, solver_options),
               InvalidArgumentError);
  EXPECT_THROW(Solver::analyze(p.matrix,
                               Solver::analyze(p.matrix).share_analysis(),
                               solver_options),
               InvalidArgumentError);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFactorize,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelFactorizeTest, GpuWorkersMatchSerialHybridTolerance) {
  // 2 CPU + 2 GPU workers, each GPU with its own simulated device. GPU
  // policies round through float, so compare through the solve like the
  // mixed-precision tests do.
  Rng rng(3);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);
  ParallelFactorizeOptions options;
  options.workers = {{.has_gpu = false}, {.has_gpu = false},
                     {.has_gpu = true}, {.has_gpu = true}};
  const FactorizeResult result = factorize_parallel(analysis, options);
  EXPECT_LT(solve_residual(p.matrix, analysis, result.factor), 1e-3);
  EXPECT_GT(result.trace.total_time, 0.0);
}

TEST(ParallelFactorizeTest, VirtualMakespanShrinksWithWorkers) {
  // Large enough that the run spans many OS scheduling quanta: every worker
  // then really executes part of the tree (even on a single hardware core),
  // and the virtual makespan must beat the one-worker serial sum.
  Rng rng(5);
  const GridProblem p = make_elasticity_3d(12, 12, 10, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);
  ParallelFactorizeOptions one;
  one.num_threads = 1;
  ParallelFactorizeOptions four;
  four.num_threads = 4;
  const double t1 = factorize_parallel(analysis, one).trace.total_time;
  const double t4 = factorize_parallel(analysis, four).trace.total_time;
  EXPECT_GT(t1, 0.0);
  // The virtual makespan over 4 workers must beat 1 worker (the tree has
  // ample independent subtrees at this size).
  EXPECT_LT(t4, t1);
}

void expect_same_call(const FuCallRecord& a, const FuCallRecord& b) {
  EXPECT_EQ(a.snode, b.snode);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.t_potrf, b.t_potrf);
  EXPECT_EQ(a.t_trsm, b.t_trsm);
  EXPECT_EQ(a.t_syrk, b.t_syrk);
  EXPECT_EQ(a.t_copy, b.t_copy);
  EXPECT_EQ(a.t_total, b.t_total);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
}

void expect_same_record(const obs::ScheduleRecord& a,
                        const obs::ScheduleRecord& b) {
  EXPECT_EQ(a.parallel, b.parallel);
  EXPECT_EQ(a.batched, b.batched);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.num_snodes, b.num_snodes);
  EXPECT_EQ(a.parent, b.parent);
  ASSERT_EQ(a.lanes.size(), b.lanes.size());
  for (std::size_t l = 0; l < a.lanes.size(); ++l) {
    const obs::ScheduleLane& la = a.lanes[l];
    const obs::ScheduleLane& lb = b.lanes[l];
    EXPECT_EQ(la.has_gpu, lb.has_gpu);
    EXPECT_EQ(la.start_now, lb.start_now);
    EXPECT_EQ(la.final_now, lb.final_now);
    ASSERT_EQ(la.events.size(), lb.events.size());
    for (std::size_t e = 0; e < la.events.size(); ++e) {
      const obs::ClockEvent& ea = la.events[e];
      const obs::ClockEvent& eb = lb.events[e];
      ASSERT_TRUE(ea.op == eb.op && ea.cls == eb.cls &&
                  ea.stream == eb.stream && ea.dep == eb.dep &&
                  ea.a == eb.a && ea.b == eb.b && ea.c == eb.c)
          << "lane " << l << " event " << e;
    }
    ASSERT_EQ(la.tasks.size(), lb.tasks.size());
    for (std::size_t t = 0; t < la.tasks.size(); ++t) {
      const obs::ScheduleTask& ta = la.tasks[t];
      const obs::ScheduleTask& tb = lb.tasks[t];
      EXPECT_TRUE(ta.kind == tb.kind && ta.snode == tb.snode &&
                  ta.batch == tb.batch && ta.members == tb.members &&
                  ta.member_policy == tb.member_policy &&
                  ta.ev_begin == tb.ev_begin && ta.ev_end == tb.ev_end &&
                  ta.exec_begin == tb.exec_begin &&
                  ta.exec_end == tb.exec_end && ta.t_begin == tb.t_begin &&
                  ta.t_end == tb.t_end)
          << "lane " << l << " task " << t;
    }
  }
}

// factorize() is the one-worker walk of the planned driver on the caller's
// executor and context, so one-worker factorize_parallel with the same
// executor is the same run bit for bit: factor, every call record, the
// times, the memory marks (the LIFO stack bound when unbatched) and the
// schedule record. It runs on the calling thread, so no pool statistics.
TEST(ParallelFactorizeTest, SingleThreadMatchesSerialTrace) {
  const GridProblem p = make_laplacian_3d(8, 8, 6);
  const Analysis analysis = analyze_md(p.matrix);
  for (const bool gpu : {false, true}) {
    for (const bool batching : {false, true}) {
      SCOPED_TRACE(std::string(gpu ? "gpu" : "cpu") + " worker, batching " +
                   (batching ? "on" : "off"));
      obs::ScheduleRecorder serial_recorder;
      FactorizeOptions numeric;
      numeric.batching = batching;
      numeric.recorder = &serial_recorder;
      Device device;
      FactorContext ctx;
      if (gpu) ctx.device = &device;
      const std::unique_ptr<FuExecutor> executor =
          default_worker_executor({.has_gpu = gpu}, {});
      const FactorizeResult serial =
          factorize(analysis, *executor, ctx, numeric);
      const obs::ScheduleRecord serial_record = serial_recorder.take();

      obs::ScheduleRecorder parallel_recorder;
      ParallelFactorizeOptions options;
      options.workers = {{.has_gpu = gpu}};
      options.numeric = numeric;
      options.numeric.recorder = &parallel_recorder;
      const FactorizeResult parallel = factorize_parallel(analysis, options);
      const obs::ScheduleRecord parallel_record = parallel_recorder.take();

      EXPECT_EQ(serial_record.batched, batching);
      EXPECT_TRUE(factors_bitwise_equal(serial.factor, parallel.factor));
      ASSERT_EQ(serial.trace.calls.size(), parallel.trace.calls.size());
      for (std::size_t i = 0; i < serial.trace.calls.size(); ++i) {
        expect_same_call(serial.trace.calls[i], parallel.trace.calls[i]);
      }
      EXPECT_EQ(serial.trace.total_time, parallel.trace.total_time);
      EXPECT_EQ(serial.trace.assembly_time, parallel.trace.assembly_time);
      ASSERT_EQ(serial.memory.size(), 1u);
      ASSERT_EQ(parallel.memory.size(), 1u);
      EXPECT_EQ(serial.memory[0].arena_peak_bytes,
                parallel.memory[0].arena_peak_bytes);
      EXPECT_EQ(serial.memory[0].device_pool_peak_bytes,
                parallel.memory[0].device_pool_peak_bytes);
      EXPECT_EQ(serial.memory[0].pinned_pool_peak_bytes,
                parallel.memory[0].pinned_pool_peak_bytes);
      EXPECT_EQ(serial.memory[0].device_pool_charged_allocs,
                parallel.memory[0].device_pool_charged_allocs);
      EXPECT_EQ(serial.memory[0].pinned_pool_charged_allocs,
                parallel.memory[0].pinned_pool_charged_allocs);
      if (!batching) {
        // The LIFO update stack, within its symbolic bound.
        EXPECT_GT(parallel.memory[0].arena_peak_bytes, 0);
        EXPECT_LE(parallel.memory[0].arena_peak_bytes,
                  analysis.symbolic.peak_update_stack_entries() *
                      static_cast<std::int64_t>(sizeof(double)));
      }
      expect_same_record(serial_record, parallel_record);
      EXPECT_EQ(parallel.pool_stats.num_workers(), 0);
      EXPECT_EQ(parallel.pool_wall_seconds, 0.0);
    }
  }
}

TEST(ParallelFactorizeTest, IndefiniteMatrixThrowsFromWorkerThread) {
  // A matrix that fails Cholesky partway: the NotPositiveDefiniteError must
  // cross the pool back to the caller no matter which worker hits it.
  Coo coo(4);
  for (index_t i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  coo.add(3, 0, 5.0);
  const SparseSpd bad = coo.to_csc();
  const Analysis analysis = analyze(bad, Permutation::identity(4));
  ParallelFactorizeOptions options;
  options.num_threads = 4;
  EXPECT_THROW(factorize_parallel(analysis, options),
               NotPositiveDefiniteError);
}

TEST(ParallelFactorizeTest, NpdMidRunLeavesNoDeadlockOrLeakedState) {
  // A small indefinite block embedded alongside a healthy 3-D subtree: the
  // bad pivot is hit by one worker while the others are mid-flight on real
  // supernodes. The error must drain the pool cleanly — no deadlock, no
  // leaked tasks — so the throw returns promptly every time, and a
  // subsequent well-conditioned run with the same options still matches the
  // serial factorization bitwise.
  const GridProblem good = make_laplacian_3d(6, 6, 4);
  const index_t n = good.matrix.n() + 2;
  Coo coo(n);
  // Indefinite 2x2 block in the first two columns (Schur complement of the
  // (1,1) pivot is 1 - 25 < 0)...
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 5.0);
  coo.add(1, 1, 1.0);
  // ...disconnected from a copy of the healthy laplacian.
  const auto col_ptr = good.matrix.col_ptr();
  const auto row_idx = good.matrix.row_idx();
  const auto values = good.matrix.values();
  for (index_t j = 0; j < good.matrix.n(); ++j) {
    for (index_t p = col_ptr[static_cast<std::size_t>(j)];
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      coo.add(row_idx[static_cast<std::size_t>(p)] + 2, j + 2,
              values[static_cast<std::size_t>(p)]);
    }
  }
  const SparseSpd bad = coo.to_csc();
  const Analysis bad_analysis = analyze_md(bad);
  ParallelFactorizeOptions options;
  options.num_threads = 4;
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_THROW(factorize_parallel(bad_analysis, options),
                 NotPositiveDefiniteError);
  }

  const Analysis good_analysis = analyze_md(good.matrix);
  options.deterministic_reduction = true;
  const FactorizeResult after = factorize_parallel(good_analysis, options);
  const FactorizeResult serial = factorize_serial(good_analysis);
  EXPECT_TRUE(factors_bitwise_equal(serial.factor, after.factor));
  EXPECT_LT(solve_residual(good.matrix, good_analysis, after.factor), 1e-8);
}

}  // namespace
}  // namespace mfgpu
