#include "core/solver.hpp"

#include <array>
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "policy/baseline_hybrid.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

std::vector<double> rhs_for_ones(const SparseSpd& a) {
  std::vector<double> ones(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(ones.size());
  a.multiply(ones, b);
  return b;
}

class SolverModes : public ::testing::TestWithParam<SolverMode> {};

TEST_P(SolverModes, SolvesLaplacianToMachinePrecision) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = GetParam();
  const Solver solver(p.matrix, options);
  const auto b = rhs_for_ones(p.matrix);
  const auto x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SolverModes,
                         ::testing::Values(SolverMode::Serial,
                                           SolverMode::BaselineHybrid,
                                           SolverMode::ModelHybrid,
                                           SolverMode::IdealHybrid));

TEST(SolverTest, NestedDissectionOrderingUsesCoordinates) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  SolverOptions options;
  options.ordering = OrderingChoice::NestedDissection;
  options.coordinates = p.coords;
  const Solver solver(p.matrix, options);
  const auto b = rhs_for_ones(p.matrix);
  const auto x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(SolverTest, NestedDissectionWithoutCoordinatesThrows) {
  const GridProblem p = make_laplacian_3d(3, 3, 3);
  SolverOptions options;
  options.ordering = OrderingChoice::NestedDissection;
  EXPECT_THROW(Solver(p.matrix, options), InvalidArgumentError);
}

TEST(SolverTest, MultipleRhsSolve) {
  Rng rng(3);
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  const Solver solver(p.matrix);
  const index_t n = p.matrix.n();
  Matrix<double> x_true(n, 3);
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < n; ++i) x_true(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix<double> b(n, 3);
  for (index_t j = 0; j < 3; ++j) {
    std::vector<double> col(static_cast<std::size_t>(n));
    std::vector<double> out(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = x_true(i, j);
    p.matrix.multiply(col, out);
    for (index_t i = 0; i < n; ++i) b(i, j) = out[static_cast<std::size_t>(i)];
  }
  const Matrix<double> x = solver.solve(b);
  EXPECT_LT(max_abs_diff<double>(x.view(), x_true.view()), 1e-8);
}

TEST(SolverTest, TraceAndTimeExposed) {
  const GridProblem p = make_laplacian_3d(5, 5, 3);
  const Solver solver(p.matrix);
  EXPECT_GT(solver.factor_time(), 0.0);
  EXPECT_EQ(static_cast<index_t>(solver.trace().calls.size()),
            solver.analysis().symbolic.num_supernodes());
  // A solve streams the factor twice: cheaper than factoring, positive,
  // and growing with the factor size.
  EXPECT_GT(solver.solve_time_estimate(), 0.0);
  EXPECT_LT(solver.solve_time_estimate(), solver.factor_time());
  const GridProblem bigger = make_laplacian_3d(8, 8, 6);
  const Solver solver2(bigger.matrix);
  EXPECT_GT(solver2.solve_time_estimate(), solver.solve_time_estimate());
}

// The service prices every batch solve through the session's Solver, so the
// estimate must stay the one-thread blocked pass at one solve thread and
// the grouped parallel sweep over a fresh schedule at more, bit for bit.
TEST(SolverTest, SolveTimeEstimatePricesItsOwnSolveThreads) {
  const GridProblem p = make_laplacian_3d(7, 6, 5);
  for (const int threads : {1, 4}) {
    SolverOptions options;
    options.solve_threads = threads;
    const Solver solver(p.matrix, options);
    const SymbolicFactor& sym = solver.analysis().symbolic;
    const SolveSchedule schedule = build_solve_schedule(sym);
    for (const index_t rhs : {1, 3, 16}) {
      const double expected =
          threads == 1 ? estimated_solve_seconds(sym, rhs)
                       : estimated_solve_seconds(sym, schedule, rhs, threads);
      EXPECT_EQ(solver.solve_time_estimate(rhs), expected)
          << threads << " threads, " << rhs << " rhs";
    }
  }
}

TEST(SolverTest, ModelHybridExposesTrainedModel) {
  const GridProblem p = make_laplacian_3d(6, 6, 4);
  SolverOptions options;
  options.mode = SolverMode::ModelHybrid;
  const Solver solver(p.matrix, options);
  ASSERT_NE(solver.model(), nullptr);
  // The trained model must pick the serial policy for tiny calls.
  EXPECT_EQ(solver.model()->choose(8, 4), Policy::P1);

  SolverOptions serial;
  serial.mode = SolverMode::Serial;
  const Solver plain(p.matrix, serial);
  EXPECT_EQ(plain.model(), nullptr);
}

TEST(SolverTest, HybridIsNotSlowerThanSerial) {
  // Large enough that the one-time GPU pool setup (~2 ms simulated)
  // amortizes; on truly tiny systems serial wins, which is honest.
  Rng rng(5);
  const GridProblem p = make_elasticity_3d(12, 12, 10, 3, rng);
  SolverOptions serial;
  serial.mode = SolverMode::Serial;
  SolverOptions hybrid;
  hybrid.mode = SolverMode::IdealHybrid;
  const Solver s1(p.matrix, serial);
  const Solver s2(p.matrix, hybrid);
  EXPECT_LE(s2.factor_time(), s1.factor_time() * 1.0001);
}

TEST(SolverTest, IndefiniteMatrixThrowsAtConstruction) {
  Coo coo(2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(1, 0, 5.0);
  EXPECT_THROW(Solver solver(coo.to_csc()), NotPositiveDefiniteError);
}

TEST(SolverTest, RefinementHistoryAvailable) {
  const GridProblem p = make_laplacian_3d(4, 4, 4);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver solver(p.matrix, options);
  const auto b = rhs_for_ones(p.matrix);
  const RefineResult r = solver.solve_with_history(b);
  EXPECT_FALSE(r.residual_norms.empty());
  EXPECT_LT(r.residual_norms.back(), 1e-8);
}

TEST(SolverTest, MoveSemantics) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  Solver a(p.matrix);
  const double t = a.factor_time();
  Solver b_solver(std::move(a));
  EXPECT_DOUBLE_EQ(b_solver.factor_time(), t);
}

TEST(SolverPhases, AnalyzeThenFactorThenSolve) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  Solver solver = Solver::analyze(p.matrix);
  EXPECT_FALSE(solver.factored());
  // The symbolic handle is live before any numeric work...
  EXPECT_GT(solver.analysis().symbolic.num_supernodes(), 0);
  // ...but solving through it is a phase error.
  const auto b = rhs_for_ones(p.matrix);
  EXPECT_THROW(solver.solve(b), InvalidStateError);

  solver.factor();
  EXPECT_TRUE(solver.factored());
  EXPECT_GT(solver.factor_time(), 0.0);
  EXPECT_GE(solver.factor_wall_seconds(), 0.0);
  const auto x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(SolverPhases, OneShotConstructorEqualsAnalyzePlusFactor) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  const Solver one_shot(p.matrix);
  Solver split = Solver::analyze(p.matrix);
  split.factor();
  // Same ordering, same symbolic structure, same (deterministic) numeric
  // factorization: the virtual factor time must agree exactly.
  EXPECT_DOUBLE_EQ(split.factor_time(), one_shot.factor_time());
  EXPECT_EQ(split.trace().calls.size(), one_shot.trace().calls.size());
}

TEST(SolverPhases, RefactorReusesAnalysisForNewValues) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  Solver solver(p.matrix);
  const auto b = rhs_for_ones(p.matrix);

  // Same pattern, scaled values: A2 = 2 A, so A2 x = b gives x = 1/2.
  std::vector<double> scaled(p.matrix.values().begin(),
                             p.matrix.values().end());
  for (double& v : scaled) v *= 2.0;
  std::vector<index_t> col_ptr(p.matrix.col_ptr().begin(),
                               p.matrix.col_ptr().end());
  std::vector<index_t> row_idx(p.matrix.row_idx().begin(),
                               p.matrix.row_idx().end());
  const SparseSpd a2(p.matrix.n(), std::move(col_ptr), std::move(row_idx),
                     std::move(scaled));
  solver.refactor(a2);
  const auto x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 0.5, 1e-8);
}

/// Same pattern, new values: every off-diagonal scaled by its own factor in
/// [0.5, 1) and every diagonal raised by up to 1 — still diagonally
/// dominant, so SPD, and different entry by entry.
SparseSpd perturbed(const SparseSpd& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(a.values().begin(), a.values().end());
  for (index_t j = 0; j < a.n(); ++j) {
    const index_t begin = a.col_ptr()[static_cast<std::size_t>(j)];
    const index_t end = a.col_ptr()[static_cast<std::size_t>(j) + 1];
    for (index_t p = begin; p < end; ++p) {
      double& v = values[static_cast<std::size_t>(p)];
      v = (p == begin) ? v + rng.uniform() : v * rng.uniform(0.5, 1.0);
    }
  }
  return SparseSpd(a.n(),
                   std::vector<index_t>(a.col_ptr().begin(), a.col_ptr().end()),
                   std::vector<index_t>(a.row_idx().begin(), a.row_idx().end()),
                   std::move(values));
}

/// Two successive refactors (values B, then C) recycle the factor's store
/// in place; the solution must be bitwise the one of a fresh solver on C —
/// a front that missed its zeroing would carry B's values into C's factor.
void expect_refactors_match_fresh(const SolverOptions& options,
                                  bool expect_gpu_calls) {
  // Big enough for the top fronts to pass the paper's P1 -> P2 threshold.
  const GridProblem p = make_laplacian_3d(16, 16, 14);
  const SparseSpd b_values = perturbed(p.matrix, 11);
  const SparseSpd c_values = perturbed(p.matrix, 12);
  Solver solver = Solver::analyze(p.matrix, options);
  solver.factor();
  solver.refactor(b_values);
  solver.refactor(c_values);
  const Solver fresh(c_values, options);

  if (expect_gpu_calls) {
    std::size_t gpu_calls = 0;
    for (const FuCallRecord& call : solver.trace().calls) {
      gpu_calls += call.policy != 1 ? 1 : 0;
    }
    EXPECT_GT(gpu_calls, 0u);
  }
  const auto rhs = rhs_for_ones(c_values);
  const auto x = solver.solve(rhs);
  const auto expected = fresh.solve(rhs);
  ASSERT_EQ(x.size(), expected.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i], expected[i]) << "entry " << i;
  }
}

TEST(SolverPhases, RefactorsInPlaceMatchAFreshSolverSerialHybrid) {
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  expect_refactors_match_fresh(options, /*expect_gpu_calls=*/true);
}

TEST(SolverPhases, RefactorsInPlaceMatchAFreshSolverFourThreads) {
  SolverOptions options;
  options.num_threads = 4;
  expect_refactors_match_fresh(options, /*expect_gpu_calls=*/false);
}

TEST(SolverPhases, RefactorsInPlaceMatchAFreshSolverBatched) {
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.batching = true;
  expect_refactors_match_fresh(options, /*expect_gpu_calls=*/true);
}

TEST(SolverPhases, RefactorRejectsDifferentPattern) {
  const GridProblem p = make_laplacian_3d(4, 4, 4);
  Solver solver(p.matrix);
  const GridProblem other_size = make_laplacian_3d(4, 4, 3);
  EXPECT_THROW(solver.refactor(other_size.matrix), InvalidArgumentError);
  const GridProblem other_pattern = make_laplacian_2d_9pt(8, 8);
  ASSERT_EQ(other_pattern.matrix.n(), p.matrix.n());
  EXPECT_THROW(solver.refactor(other_pattern.matrix), InvalidArgumentError);
  // Same n, col_ptr and nnz, with one row index moved: only the row indices
  // tell the patterns apart.
  const std::vector<index_t> col_ptr(p.matrix.col_ptr().begin(),
                                     p.matrix.col_ptr().end());
  std::vector<index_t> row_idx(p.matrix.row_idx().begin(),
                               p.matrix.row_idx().end());
  const std::size_t last_of_col0 = static_cast<std::size_t>(col_ptr[1]) - 1;
  ASSERT_LT(row_idx[last_of_col0] + 1, p.matrix.n());
  ++row_idx[last_of_col0];
  const SparseSpd moved(p.matrix.n(), col_ptr, row_idx,
                        std::vector<double>(p.matrix.values().begin(),
                                            p.matrix.values().end()));
  EXPECT_THROW(solver.refactor(moved), InvalidArgumentError);
}

TEST(SolverPhases, CoordinatesNeedNotOutliveAnalyze) {
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  Solver solver = [&] {
    // The coordinate array dies with this scope; analyze() must have copied
    // it (the old API captured the span and dangled here).
    std::vector<std::array<index_t, 3>> coords = p.coords;
    SolverOptions options;
    options.ordering = OrderingChoice::NestedDissection;
    options.coordinates = coords;
    return Solver::analyze(p.matrix, options);
  }();
  solver.factor();
  const auto x = solver.solve(rhs_for_ones(p.matrix));
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(SolverValidation, RhsSizeMismatchThrows) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const Solver solver(p.matrix);
  const std::vector<double> short_rhs(static_cast<std::size_t>(p.matrix.n()) - 1,
                                      1.0);
  const std::vector<double> long_rhs(static_cast<std::size_t>(p.matrix.n()) + 5,
                                     1.0);
  EXPECT_THROW(solver.solve(short_rhs), InvalidArgumentError);
  EXPECT_THROW(solver.solve(long_rhs), InvalidArgumentError);
  EXPECT_THROW(solver.solve_with_history(short_rhs), InvalidArgumentError);
  const Matrix<double> bad_block(p.matrix.n() - 1, 2);
  EXPECT_THROW(solver.solve(bad_block), InvalidArgumentError);
}

TEST(SolverPhases, SharedAnalysisAdoptionMatchesFreshAnalyze) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  Solver first(p.matrix);
  const std::shared_ptr<const PatternAnalysis> shared = first.share_analysis();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->fingerprint, p.matrix.pattern_fingerprint());
  EXPECT_EQ(shared->fingerprint, first.pattern_fingerprint());
  EXPECT_GT(shared->approx_bytes, 0u);

  // Adopt for a same-pattern matrix with different values: 2A x = b gives
  // x = 1/2, and the factorization must be bitwise identical to a fresh
  // end-to-end solver on the same matrix (same ordering, same symbolic).
  std::vector<double> scaled(p.matrix.values().begin(),
                             p.matrix.values().end());
  for (double& v : scaled) v *= 2.0;
  const SparseSpd a2(p.matrix.n(),
                     {p.matrix.col_ptr().begin(), p.matrix.col_ptr().end()},
                     {p.matrix.row_idx().begin(), p.matrix.row_idx().end()},
                     std::move(scaled));
  Solver adopted = Solver::analyze(a2, shared);
  adopted.factor();
  const Solver fresh(a2);
  const auto b = rhs_for_ones(p.matrix);
  const auto xa = adopted.solve(b);
  const auto xf = fresh.solve(b);
  ASSERT_EQ(xa.size(), xf.size());
  for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xf[i]);
  EXPECT_DOUBLE_EQ(adopted.factor_time(), fresh.factor_time());
}

TEST(SolverPhases, SharedAnalysisRejectsDifferentPattern) {
  const GridProblem p = make_laplacian_3d(4, 4, 4);
  const Solver solver(p.matrix);
  const auto shared = solver.share_analysis();
  const GridProblem other = make_laplacian_2d_9pt(8, 8);
  ASSERT_EQ(other.matrix.n(), p.matrix.n());
  EXPECT_THROW(Solver::analyze(other.matrix, shared), InvalidArgumentError);
}

TEST(SolverParallel, ConcurrentSolvesShareOneFactorization) {
  // Solver documents thread-compatibility: after factor(), any number of
  // threads may call the const solve() paths concurrently. Hammer one
  // factored solver from several threads (this runs under the TSan CI job)
  // and require every result to be bitwise identical to the serial answer.
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  const Solver solver(p.matrix);
  const auto b = rhs_for_ones(p.matrix);
  const std::vector<double> reference = solver.solve(b);

  constexpr int kThreads = 6;
  constexpr int kSolvesPerThread = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSolvesPerThread; ++s) {
        // Mix the plain, history, and multi-rhs entry points.
        std::vector<double> x;
        if ((t + s) % 3 == 0) {
          x = solver.solve_with_history(b).x;
        } else if ((t + s) % 3 == 1) {
          Matrix<double> rhs(p.matrix.n(), 1);
          for (index_t i = 0; i < p.matrix.n(); ++i) {
            rhs(i, 0) = b[static_cast<std::size_t>(i)];
          }
          const Matrix<double> sol = solver.solve(rhs);
          x.assign(sol.data(), sol.data() + sol.rows());
        } else {
          x = solver.solve(b);
        }
        if (x != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SolverParallel, ThreadedFactorizationIsBitwiseSerial) {
  const GridProblem p = make_laplacian_3d(7, 6, 5);
  SolverOptions serial_options;
  serial_options.mode = SolverMode::Serial;
  const Solver serial(p.matrix, serial_options);
  SolverOptions threaded_options;
  threaded_options.mode = SolverMode::Serial;
  threaded_options.num_threads = 4;  // deterministic_reduction defaults on
  const Solver threaded(p.matrix, threaded_options);
  // Deterministic reduction: the executed schedule produces the exact
  // serial factor, so refined solves agree bitwise too.
  const auto b = rhs_for_ones(p.matrix);
  const auto xs = serial.solve(b);
  const auto xt = threaded.solve(b);
  ASSERT_EQ(xs.size(), xt.size());
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], xt[i]);
}

TEST(SolverParallel, GpuWorkerListSolvesAccurately) {
  const GridProblem p = make_laplacian_3d(6, 6, 5);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.workers = {{.has_gpu = true}, {.has_gpu = true},
                     {.has_gpu = false}, {.has_gpu = false}};
  const Solver solver(p.matrix, options);
  const auto x = solver.solve(rhs_for_ones(p.matrix));
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
  EXPECT_GT(solver.factor_time(), 0.0);
}

/// A one-thread Solver and a one-GPU-worker Solver run the same one-worker
/// walk: bitwise the composed factorize() with the paper's baseline hybrid
/// on one device, in simulated factor time and in policy counts.
TEST(SolverParallel, OneWorkerMatchesComposedBaselineHybrid) {
  Rng rng(7);
  const GridProblem p = make_elasticity_3d(10, 10, 8, 3, rng);
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  const Solver one_thread(p.matrix, options);
  options.workers = {{.has_gpu = true}};
  const Solver gpu_worker(p.matrix, options);

  DispatchExecutor executor = make_baseline_hybrid(paper_thresholds());
  Device device;
  FactorContext ctx;
  ctx.device = &device;
  const FactorizeResult composed =
      factorize(one_thread.analysis(), executor, ctx);

  const auto policy_counts = [](const FactorizationTrace& trace) {
    std::array<int, 6> counts{};
    for (const FuCallRecord& call : trace.calls) {
      ++counts[static_cast<std::size_t>(call.policy)];
    }
    return counts;
  };
  const std::array<int, 6> expected = policy_counts(composed.trace);
  EXPECT_GT(expected[2] + expected[3] + expected[4], 0)
      << "no call left the host";
  for (const Solver* solver : {&one_thread, &gpu_worker}) {
    EXPECT_EQ(solver->factor_time(), composed.trace.total_time);
    EXPECT_EQ(policy_counts(solver->trace()), expected);
  }
}

/// The Solver's one pool runs factor, refactor, both sweeps and the
/// refinement residuals; a failed refactor leaves it usable. Every solve is
/// bitwise the solve of a fresh one-thread Solver on the same values.
TEST(SolverParallel, OnePoolAcrossPhases) {
  const GridProblem p = make_laplacian_3d(9, 8, 7);
  const index_t n = p.matrix.n();
  const SparseSpd b_values = perturbed(p.matrix, 21);
  std::vector<double> negated(p.matrix.values().begin(),
                              p.matrix.values().end());
  for (double& v : negated) v = -v;
  const SparseSpd not_spd(
      n, std::vector<index_t>(p.matrix.col_ptr().begin(), p.matrix.col_ptr().end()),
      std::vector<index_t>(p.matrix.row_idx().begin(), p.matrix.row_idx().end()),
      std::move(negated));
  Matrix<double> rhs(n, 4);
  for (index_t c = 0; c < 4; ++c) {
    for (index_t i = 0; i < n; ++i) {
      rhs(i, c) = 1.0 + static_cast<double>((i * 5 + c * 3) % 11);
    }
  }

  SolverOptions serial;
  serial.mode = SolverMode::Serial;
  SolverOptions pooled = serial;
  pooled.num_threads = 4;
  pooled.solve_threads = 4;
  auto expect_fresh = [&](const Solver& solver, const SparseSpd& values) {
    const Matrix<double> x = solver.solve(rhs);
    const Matrix<double> expected = Solver(values, serial).solve(rhs);
    for (index_t c = 0; c < 4; ++c) {
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(x(i, c), expected(i, c)) << "col " << c << " row " << i;
      }
    }
  };

  Solver solver = Solver::analyze(p.matrix, pooled);
  solver.factor();
  expect_fresh(solver, p.matrix);
  solver.refactor(b_values);
  expect_fresh(solver, b_values);

  EXPECT_THROW(solver.refactor(not_spd), NotPositiveDefiniteError);
  EXPECT_FALSE(solver.factored());
  solver.refactor(b_values);
  expect_fresh(solver, b_values);
}

TEST(SolverTest, EmptyMatrixIsAnInvalidArgument) {
  const SparseSpd empty(0, {0}, {}, {});
  EXPECT_THROW(Solver::analyze(empty), InvalidArgumentError);
  EXPECT_THROW(Solver solver(empty), InvalidArgumentError);
  // Adopting a shared analysis of the empty pattern is rejected the same way.
  const auto shared = std::make_shared<const PatternAnalysis>(
      empty.pattern_fingerprint(), Permutation::identity(0),
      SymbolicFactor(empty, AnalyzeOptions{}), AnalyzeOptions{},
      std::make_shared<const std::vector<index_t>>());
  EXPECT_THROW(Solver::analyze(empty, shared), InvalidArgumentError);
}

TEST(SolverTest, OneUnknownSolvesThroughEveryPhase) {
  const SparseSpd one(1, {0, 1}, {0}, {4.0});
  Solver solver = Solver::analyze(one);
  EXPECT_EQ(solver.analysis().symbolic.num_supernodes(), 1);
  solver.factor();
  EXPECT_NEAR(solver.solve(std::vector<double>{2.0}).at(0), 0.5, 1e-15);
  solver.refactor(SparseSpd(1, {0, 1}, {0}, {8.0}));
  EXPECT_NEAR(solver.solve(std::vector<double>{2.0}).at(0), 0.25, 1e-15);

  Solver adopted = Solver::analyze(one, solver.share_analysis());
  adopted.factor();
  EXPECT_NEAR(adopted.solve(std::vector<double>{1.0}).at(0), 0.25, 1e-15);
}

}  // namespace
}  // namespace mfgpu
