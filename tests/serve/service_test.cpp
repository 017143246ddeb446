#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "multifrontal/parallel_solve.hpp"
#include "serve/cost.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu::serve {
namespace {

std::shared_ptr<const SparseSpd> shared_matrix(const SparseSpd& a) {
  return std::make_shared<SparseSpd>(a);
}

/// Same pattern, all values scaled by `factor` (> 0 keeps SPD).
std::shared_ptr<const SparseSpd> scaled_copy(const SparseSpd& a,
                                             double factor) {
  std::vector<double> values(a.values().begin(), a.values().end());
  for (double& v : values) v *= factor;
  return std::make_shared<SparseSpd>(
      a.n(), std::vector<index_t>(a.col_ptr().begin(), a.col_ptr().end()),
      std::vector<index_t>(a.row_idx().begin(), a.row_idx().end()),
      std::move(values));
}

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

TEST(ServeService, SingleRequestMatchesDirectSolver) {
  const GridProblem p = make_laplacian_3d(6, 6, 4);
  const auto a = shared_matrix(p.matrix);
  const auto b = random_rhs(p.matrix.n(), 11);

  SolverService service(ServeOptions{});
  auto future = service.submit(a, b);
  const SolveResult result = future.get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.analysis_cache_hit);
  EXPECT_FALSE(result.factor_reused);
  EXPECT_GT(result.simulated_seconds, 0.0);

  Solver solver(p.matrix);
  const auto expected = solver.solve(b);
  ASSERT_EQ(result.x.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.x[i], expected[i]) << "component " << i;
  }
}

TEST(ServeService, BatchedSolvesAreBitwiseIdenticalToUnbatched) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const auto a = shared_matrix(p.matrix);
  constexpr int kRequests = 6;

  ServeOptions options;
  options.num_sessions = 1;
  options.start_paused = true;  // all requests queue up -> one wide batch
  options.max_batch_rhs = kRequests;
  SolverService service(options);

  std::vector<std::future<SolveResult>> futures;
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(service.submit(a, random_rhs(p.matrix.n(), 100 + r)));
  }
  EXPECT_EQ(service.queue_depth(), static_cast<std::size_t>(kRequests));
  service.start();

  Solver solver(p.matrix);
  for (int r = 0; r < kRequests; ++r) {
    const SolveResult result = futures[static_cast<std::size_t>(r)].get();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.batch_size, kRequests);
    const auto expected = solver.solve(random_rhs(p.matrix.n(), 100 + r));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.x[i], expected[i])
          << "request " << r << " component " << i;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.analyses, 1);
  EXPECT_EQ(stats.factorizations, 1);
}

TEST(ServeService, ResolutionHierarchyReusesAnalysisAndFactor) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  const auto a = shared_matrix(p.matrix);
  const auto a_scaled = scaled_copy(p.matrix, 2.5);
  const auto b = random_rhs(p.matrix.n(), 3);

  ServeOptions options;
  options.num_sessions = 1;  // deterministic session-local reuse
  SolverService service(options);

  // Path 4: cache miss -> full analyze.
  const SolveResult first = service.submit(a, b).get();
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.analysis_cache_hit);
  EXPECT_FALSE(first.factor_reused);

  // Path 1: same pattern AND values -> factor reused outright.
  const SolveResult second = service.submit(a, random_rhs(p.matrix.n(), 4)).get();
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.analysis_cache_hit);
  EXPECT_TRUE(second.factor_reused);

  // Path 2: same pattern, new values -> refactor only.
  const SolveResult third = service.submit(a_scaled, b).get();
  ASSERT_TRUE(third.ok()) << third.error;
  EXPECT_TRUE(third.analysis_cache_hit);
  EXPECT_FALSE(third.factor_reused);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.analyses, 1);
  EXPECT_EQ(stats.analysis_reuses, 2);
  EXPECT_EQ(stats.factorizations, 2);
  EXPECT_EQ(stats.factor_reuses, 1);
  EXPECT_DOUBLE_EQ(stats.analysis_hit_rate(), 2.0 / 3.0);
  EXPECT_EQ(service.cache_stats().insertions, 1);

  // The refactored solve matches a direct solver on the scaled matrix.
  Solver direct(*a_scaled);
  const auto expected = direct.solve(b);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(third.x[i], expected[i]);
  }
}

TEST(ServeService, CacheSharesOneAnalysisAcrossSessions) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  ServeOptions options;
  options.num_sessions = 3;
  options.max_batch_rhs = 1;  // force each request through its own session trip
  SolverService service(options);

  std::vector<std::future<SolveResult>> futures;
  for (int r = 0; r < 9; ++r) {
    // Distinct value scalings of one pattern: no factor reuse, but every
    // session can adopt the shared analysis once it lands in the cache.
    futures.push_back(service.submit(scaled_copy(p.matrix, 1.0 + 0.1 * r),
                                     random_rhs(p.matrix.n(), 40 + r)));
  }
  for (auto& f : futures) {
    const SolveResult result = f.get();
    ASSERT_TRUE(result.ok()) << result.error;
  }
  // At most one full analyze per session can race past the cache; with 3
  // sessions and 9 requests the shared artifact must have been reused.
  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.analyses, 3);
  EXPECT_GE(stats.analysis_reuses, 6);
  EXPECT_EQ(stats.analyses + stats.analysis_reuses, stats.batches);
}

TEST(ServeService, BlockPolicyAppliesBackpressure) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const auto a = shared_matrix(p.matrix);
  ServeOptions options;
  options.num_sessions = 1;
  options.queue_capacity = 1;
  SolverService service(options);

  constexpr int kRequests = 5;
  std::vector<std::future<SolveResult>> futures(kRequests);
  std::thread submitter([&] {
    for (int r = 0; r < kRequests; ++r) {
      // With capacity 1 these pushes block until the session drains the
      // queue; all of them must eventually be admitted.
      futures[static_cast<std::size_t>(r)] =
          service.submit(a, random_rhs(p.matrix.n(), 60 + r));
    }
  });
  submitter.join();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ServeService, QueueDeadlineExpiresWaitingRequests) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const auto a = shared_matrix(p.matrix);
  ServeOptions options;
  options.num_sessions = 1;
  options.start_paused = true;
  SolverService service(options);

  RequestOptions tight;
  tight.deadline_seconds = 1e-3;
  auto doomed = service.submit(a, random_rhs(p.matrix.n(), 7), tight);
  auto fine = service.submit(a, random_rhs(p.matrix.n(), 8));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();

  EXPECT_EQ(doomed.get().status, RequestStatus::DeadlineExceeded);
  EXPECT_TRUE(fine.get().ok());
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

TEST(ServeService, FailedFactorizationReportsErrorAndServiceSurvives) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  // An all-negative diagonal matrix with the Laplacian's pattern: not SPD.
  const auto bad = scaled_copy(p.matrix, -1.0);
  ServeOptions options;
  options.num_sessions = 1;
  SolverService service(options);

  const SolveResult failed =
      service.submit(bad, random_rhs(p.matrix.n(), 9)).get();
  EXPECT_EQ(failed.status, RequestStatus::Failed);
  EXPECT_FALSE(failed.error.empty());

  // The session recovered: a well-posed request still succeeds.
  const SolveResult ok =
      service.submit(shared_matrix(p.matrix), random_rhs(p.matrix.n(), 10))
          .get();
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(service.stats().failed, 1);
}

TEST(ServeService, SubmitValidatesArguments) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  SolverService service(ServeOptions{});
  EXPECT_THROW(service.submit(nullptr, {1.0}), InvalidArgumentError);
  EXPECT_THROW(
      service.submit(shared_matrix(p.matrix),
                     std::vector<double>(static_cast<std::size_t>(
                         p.matrix.n() + 1))),
      InvalidArgumentError);

  // A deadline must be a number >= 0. One past the clock's range (or +inf)
  // means no deadline, like 0.
  const auto a = shared_matrix(p.matrix);
  const auto b = random_rhs(p.matrix.n(), 12);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    RequestOptions deadline;
    deadline.deadline_seconds = bad;
    EXPECT_THROW(service.submit(a, b, deadline), InvalidArgumentError) << bad;
  }
  for (double unbounded : {1e300, std::numeric_limits<double>::infinity()}) {
    RequestOptions deadline;
    deadline.deadline_seconds = unbounded;
    const SolveResult result = service.submit(a, b, deadline).get();
    EXPECT_EQ(result.status, RequestStatus::Ok) << unbounded;
  }
}

TEST(ServeService, ShutdownDrainsQueuedRequests) {
  const GridProblem p = make_laplacian_3d(5, 5, 3);
  const auto a = shared_matrix(p.matrix);
  ServeOptions options;
  options.num_sessions = 2;
  options.start_paused = true;
  SolverService service(options);

  std::vector<std::future<SolveResult>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(service.submit(a, random_rhs(p.matrix.n(), 20 + r)));
  }
  service.start();
  service.shutdown(true);  // must finish everything already admitted
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(service.stats().completed, 8);

  // After shutdown, new submissions resolve immediately as Rejected.
  auto late = service.submit(a, random_rhs(p.matrix.n(), 99));
  EXPECT_EQ(late.get().status, RequestStatus::Rejected);
}

TEST(ServeService, NonDrainingShutdownCancelsQueuedWithoutDeadlock) {
  const GridProblem p = make_laplacian_3d(5, 5, 3);
  const auto a = shared_matrix(p.matrix);
  ServeOptions options;
  options.num_sessions = 1;
  options.max_batch_rhs = 1;
  options.start_paused = true;
  SolverService service(options);

  std::vector<std::future<SolveResult>> futures;
  for (int r = 0; r < 6; ++r) {
    futures.push_back(service.submit(a, random_rhs(p.matrix.n(), 30 + r)));
  }
  service.start();  // sessions begin pulling work...
  service.shutdown(false);  // ...and the rest is cancelled mid-stream

  int completed = 0, cancelled = 0;
  for (auto& f : futures) {
    const SolveResult result = f.get();  // every future MUST resolve
    if (result.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(result.status, RequestStatus::Cancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, 6);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.cancelled, cancelled);
  // Idempotent: a second shutdown (and the destructor) is a no-op.
  service.shutdown(true);
}

TEST(ServeService, DestructorDrainsOutstandingWork) {
  const GridProblem p = make_laplacian_3d(5, 4, 3);
  const auto a = shared_matrix(p.matrix);
  std::future<SolveResult> future;
  {
    ServeOptions options;
    options.start_paused = true;
    SolverService service(options);
    future = service.submit(a, random_rhs(p.matrix.n(), 5));
    service.start();
  }  // ~SolverService == shutdown(true)
  EXPECT_TRUE(future.get().ok());
}

TEST(ServeService, FailedRequestKeepsBatchmatesIndependent) {
  // One poisoned request in a queued batch must not take healthy requests
  // down with it: they were batched by fingerprint, so the bad matrix forms
  // its own batch and only it fails.
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const auto good = shared_matrix(p.matrix);
  const auto bad = scaled_copy(p.matrix, -1.0);
  ServeOptions options;
  options.num_sessions = 1;
  options.start_paused = true;
  SolverService service(options);

  auto good_future = service.submit(good, random_rhs(p.matrix.n(), 6));
  auto bad_future = service.submit(bad, random_rhs(p.matrix.n(), 7));
  service.start();

  EXPECT_TRUE(good_future.get().ok());
  const SolveResult failed = bad_future.get();
  EXPECT_EQ(failed.status, RequestStatus::Failed);
  EXPECT_EQ(service.stats().completed, 1);
  EXPECT_EQ(service.stats().failed, 1);
}

// The acceptance gate of the serving layer: on a refactor-heavy workload
// (one pattern, several value sets, repeated right-hand sides) a warm
// service must beat per-request Solver construction by >= 3x in simulated
// throughput while returning bitwise-identical solutions.
TEST(ServeThroughput, WarmServiceBeatsNaivePerRequestSolversBy3x) {
  const GridProblem p = make_laplacian_3d(10, 10, 8);
  constexpr int kValueSets = 4;
  constexpr int kRhsPerSet = 4;  // 16 requests total
  std::vector<std::shared_ptr<const SparseSpd>> matrices;
  for (int v = 0; v < kValueSets; ++v) {
    matrices.push_back(scaled_copy(p.matrix, 1.0 + 0.25 * v));
  }

  // Naive baseline: every request pays analyze + factor + single solve.
  double naive_sim = 0.0;
  std::vector<std::vector<double>> expected;
  for (int v = 0; v < kValueSets; ++v) {
    for (int r = 0; r < kRhsPerSet; ++r) {
      Solver solver(*matrices[static_cast<std::size_t>(v)]);
      const auto b = random_rhs(p.matrix.n(), 1000 + v * kRhsPerSet + r);
      expected.push_back(solver.solve(b));
      naive_sim += estimated_analyze_seconds(
                       *matrices[static_cast<std::size_t>(v)],
                       solver.analysis().symbolic) +
                   solver.factor_time() +
                   estimated_solve_seconds(solver.analysis().symbolic, 1);
    }
  }

  ServeOptions options;
  options.num_sessions = 1;   // deterministic batch composition
  options.start_paused = true;
  options.max_batch_rhs = kRhsPerSet;
  options.queue_capacity = kValueSets * kRhsPerSet;
  SolverService service(options);

  std::vector<std::future<SolveResult>> futures;
  for (int v = 0; v < kValueSets; ++v) {
    for (int r = 0; r < kRhsPerSet; ++r) {
      futures.push_back(service.submit(
          matrices[static_cast<std::size_t>(v)],
          random_rhs(p.matrix.n(), 1000 + v * kRhsPerSet + r)));
    }
  }
  service.start();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveResult result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.x.size(), expected[i].size());
    for (std::size_t j = 0; j < expected[i].size(); ++j) {
      ASSERT_EQ(result.x[j], expected[i][j])
          << "request " << i << " component " << j;
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kValueSets * kRhsPerSet);
  EXPECT_EQ(stats.analyses, 1);  // one full analyze for the whole workload
  EXPECT_EQ(stats.analysis_reuses, kValueSets - 1);
  EXPECT_EQ(stats.factorizations, kValueSets);
  EXPECT_EQ(stats.batches, kValueSets);

  const double service_sim = stats.simulated_seconds();
  ASSERT_GT(service_sim, 0.0);
  const double speedup = naive_sim / service_sim;
  RecordProperty("simulated_speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 3.0) << "naive " << naive_sim << "s vs service "
                          << service_sim << "s";
}

TEST(ServeService, EmptyAndOneUnknownRequests) {
  SolverService service(ServeOptions{});
  // An empty system is refused at admission: it never reaches a session.
  EXPECT_THROW(service.submit(std::make_shared<const SparseSpd>(
                                  0, std::vector<index_t>{0},
                                  std::vector<index_t>{}, std::vector<double>{}),
                              {}),
               InvalidArgumentError);
  const auto one = std::make_shared<const SparseSpd>(
      1, std::vector<index_t>{0, 1}, std::vector<index_t>{0},
      std::vector<double>{4.0});
  const SolveResult result = service.submit(one, {2.0}).get();
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.x.size(), 1u);
  EXPECT_NEAR(result.x[0], 0.5, 1e-15);
  EXPECT_EQ(service.stats().failed, 0);
}

}  // namespace
}  // namespace mfgpu::serve
