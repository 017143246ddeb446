#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "policy/executors.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

struct SolveSetup {
  Analysis analysis;
  Factorization factor;
};

SolveSetup factorize_nd(const GridProblem& p) {
  Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  FactorizeResult result = factorize(an, p1, ctx);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

SolveSetup factorize_mixed(const GridProblem& p, Device& device) {
  Analysis an = analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  PolicyExecutor p3(Policy::P3);
  FactorContext ctx;
  ctx.device = &device;
  FactorizeResult result = factorize(an, p3, ctx);
  return SolveSetup{std::move(an), std::move(result.factor)};
}

Matrix<double> make_block(index_t n, index_t cols) {
  Matrix<double> b(n, cols);
  for (index_t c = 0; c < cols; ++c) {
    for (index_t i = 0; i < n; ++i) {
      b(i, c) = 1.0 + 0.25 * static_cast<double>(c) +
                0.01 * static_cast<double>((i * 7 + c * 13) % 23);
    }
  }
  return b;
}

// The forward update blocks of a schedule: walk each group in postorder.
// A supernode's block must not overlap any block still waiting for its
// parent, nor the children's blocks it reads; stacked blocks fit the
// stack, group tops' blocks tile the shared area.
void expect_update_layout_is_a_lifo_stack(const SymbolicFactor& sym,
                                          const SolveSchedule& sched) {
  auto rows_of = [&](index_t sn) {
    return sym.supernodes()[static_cast<std::size_t>(sn)].num_update_rows();
  };
  index_t shared_next = 0;
  for (index_t g = 0; g < sched.num_groups(); ++g) {
    const index_t begin = sched.group_ptr[static_cast<std::size_t>(g)];
    const index_t end = sched.group_ptr[static_cast<std::size_t>(g) + 1];
    std::vector<index_t> live;  // stacked blocks not yet consumed
    for (index_t sn = begin; sn < end; ++sn) {
      const index_t off = sched.update_offset[static_cast<std::size_t>(sn)];
      if (sn + 1 == end) {
        if (sym.supernodes()[static_cast<std::size_t>(sn)].parent != -1) {
          EXPECT_EQ(off, shared_next) << "group top " << sn;
          shared_next += rows_of(sn);
        }
        continue;
      }
      EXPECT_LE(off + rows_of(sn), sched.stack_rows) << "supernode " << sn;
      for (const index_t other : live) {
        const index_t o = sched.update_offset[static_cast<std::size_t>(other)];
        EXPECT_TRUE(off + rows_of(sn) <= o || o + rows_of(other) <= off)
            << "block of " << sn << " overlaps the live block of " << other;
      }
      std::erase_if(live, [&](index_t c) {
        return sym.supernodes()[static_cast<std::size_t>(c)].parent == sn;
      });
      live.push_back(sn);
    }
  }
  EXPECT_EQ(shared_next, sched.shared_rows);
}

TEST(ParallelSolveTest, ScheduleInvariants) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const SymbolicFactor& sym = s.analysis.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);

  ASSERT_EQ(sched.num_supernodes, sym.num_supernodes());
  ASSERT_GE(sched.num_levels, 1);

  // Levels are the symbolic heights: level_nodes is a partition of the
  // supernodes by height, ascending within a level, and max_level_width is
  // the widest level.
  EXPECT_EQ(sched.num_levels, sym.num_levels());
  ASSERT_EQ(sched.level_ptr.size(),
            static_cast<std::size_t>(sched.num_levels) + 1);
  EXPECT_EQ(sched.level_ptr.front(), 0);
  EXPECT_EQ(sched.level_ptr.back(), sched.num_supernodes);
  index_t widest = 0;
  std::vector<char> seen(static_cast<std::size_t>(sched.num_supernodes), 0);
  for (index_t l = 0; l < sched.num_levels; ++l) {
    widest = std::max(widest, sched.level_ptr[static_cast<std::size_t>(l) + 1] -
                                  sched.level_ptr[static_cast<std::size_t>(l)]);
    index_t prev = -1;
    for (index_t i = sched.level_ptr[static_cast<std::size_t>(l)];
         i < sched.level_ptr[static_cast<std::size_t>(l) + 1]; ++i) {
      const index_t sn = sched.level_nodes[static_cast<std::size_t>(i)];
      EXPECT_EQ(sym.height(sn), l);
      EXPECT_GT(sn, prev);
      prev = sn;
      EXPECT_EQ(seen[static_cast<std::size_t>(sn)], 0);
      seen[static_cast<std::size_t>(sn)] = 1;
    }
  }
  EXPECT_EQ(sched.max_level_width, widest);

  expect_update_layout_is_a_lifo_stack(sym, sched);
}

// Thread independence: the solve on 2/4/8 threads is bitwise the
// one-thread solve, for a double factor and a P3 (device float) factor.
TEST(ParallelSolveTest, BitwiseMatchesOneThreadAcrossThreads) {
  Rng rng(11);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  Device device;
  const SolveSetup setups[] = {factorize_nd(make_laplacian_3d(6, 5, 4)),
                               factorize_mixed(p, device)};
  for (const SolveSetup& s : setups) {
    const index_t n = s.analysis.symbolic.n();
    const Matrix<double> b = make_block(n, 1);
    ParallelSolveOptions one_thread;
    one_thread.threads = 1;
    const Matrix<double> serial = solve(s.analysis, s.factor, b, 1, one_thread);
    for (int threads : {1, 2, 4, 8}) {
      ParallelSolveOptions options;
      options.threads = threads;
      const Matrix<double> x = solve(s.analysis, s.factor, b, 1, options);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(x(i, 0), serial(i, 0))
            << "threads=" << threads << " row=" << i;
      }
    }
  }
}

// Column independence on a small problem: each column of a 5-wide solve on
// 4 threads is bitwise the 1-wide solve of that column.
TEST(ParallelSolveTest, BlockedSolveMatchesPerColumn) {
  const GridProblem p = make_laplacian_3d(5, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const index_t n = s.analysis.symbolic.n();
  const index_t kRhs = 5;
  const Matrix<double> b = make_block(n, kRhs);

  ParallelSolveOptions options;
  options.threads = 4;
  const Matrix<double> x = solve(s.analysis, s.factor, b, kRhs, options);

  for (index_t c = 0; c < kRhs; ++c) {
    const std::vector<double> col = solve(
        s.analysis, s.factor,
        std::span<const double>(b.data() + c * n, static_cast<std::size_t>(n)));
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x(i, c), col[static_cast<std::size_t>(i)])
          << "col=" << c << " row=" << i;
    }
  }
}

// Column independence where the dense kernels change path: supernodes
// wider than the kernels' depth block (kc = 192 in double) and update blocks
// taller than it, so wide solves pack their products while 1-wide ones take
// the unpacked leaf. Every column of an r-wide solve must be bitwise the
// 1-wide solve of that column, at every width, on 1 and 4 threads.
TEST(ParallelSolveTest, ColumnsMatchOneWideSolveAtEveryWidth) {
  Rng rng(17);
  const GridProblem p = make_elasticity_3d(9, 9, 9, 3, rng);
  Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  const SymbolicFactor& sym = an.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);
  index_t widest = 0;
  index_t tallest_update = 0;
  for (const SupernodeInfo& sn : sym.supernodes()) {
    widest = std::max(widest, sn.width());
    tallest_update = std::max(tallest_update, sn.num_update_rows());
  }
  ASSERT_GT(widest, 192);
  ASSERT_GT(tallest_update, 192);

  const index_t n = sym.n();
  const index_t kMaxRhs = 17;
  const Matrix<double> b = make_block(n, kMaxRhs);
  {
    PolicyExecutor p1(Policy::P1);
    FactorContext ctx;
    const Factorization factor = factorize(an, p1, ctx).factor;

    std::vector<Matrix<double>> one_wide;
    for (index_t c = 0; c < kMaxRhs; ++c) {
      Matrix<double> col(n, 1);
      std::copy(b.data() + c * n, b.data() + (c + 1) * n, col.data());
      one_wide.push_back(solve(an, factor, col, 1));
    }
    for (int threads : {1, 4}) {
      ParallelSolveOptions options;
      options.threads = threads;
      options.schedule = &sched;
      for (index_t r : {1, 2, 3, 8, 16, 17}) {
        const Matrix<double> x = solve(an, factor, b, r, options);
        for (index_t c = 0; c < r; ++c) {
          for (index_t i = 0; i < n; ++i) {
            ASSERT_EQ(x(i, c), one_wide[static_cast<std::size_t>(c)](i, 0))
                << "threads=" << threads << " r=" << r << " col=" << c
                << " row=" << i;
          }
        }
      }
    }
  }

  // A NaN in an update-row entry of a panel reaches x even when every x
  // entry it multiplies is exactly zero: no kernel skips a zero multiplier.
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  Factorization poisoned = factorize(an, p1, ctx).factor;
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    if (sn.num_update_rows() > 0) {
      poisoned.panels[static_cast<std::size_t>(s)](sn.width(), 0) =
          std::numeric_limits<double>::quiet_NaN();
      break;
    }
  }
  const Matrix<double> zeros(n, 16);
  for (index_t r : {1, 16}) {
    ParallelSolveOptions options;
    options.threads = 4;
    const Matrix<double> x = solve(an, poisoned, zeros, r, options);
    for (index_t c = 0; c < r; ++c) {
      bool has_nan = false;
      for (index_t i = 0; i < n; ++i) has_nan = has_nan || std::isnan(x(i, c));
      EXPECT_TRUE(has_nan) << "zero-rhs solve masked a NaN-poisoned panel, r="
                           << r << " col=" << c;
    }
  }
}

// The subtree groups tile the postorder: every supernode lies in exactly
// one group; a group is a contiguous range whose last member is the root of
// the subtree the group covers; light groups stay under the grain; the two
// grouped DAGs are the group forest: each group's forward dependencies are
// exactly its child groups, and the backward DAG is the reverse.
// The cut is a pattern artifact: every solve, at any thread or RHS count,
// executes the same 2 x groups sweep tasks.
TEST(ParallelSolveTest, SubtreeGroupsPartitionThePostorder) {
  const GridProblem p = make_laplacian_2d_9pt(40, 40);
  const SolveSetup s = [&] {
    Analysis an = analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
    PolicyExecutor p1(Policy::P1);
    FactorContext ctx;
    Factorization factor = factorize(an, p1, ctx).factor;
    return SolveSetup{std::move(an), std::move(factor)};
  }();
  const SymbolicFactor& sym = s.analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  const SolveSchedule sched = build_solve_schedule(sym);
  const index_t ngroups = sched.num_groups();
  ASSERT_GT(ngroups, 1);
  ASSERT_LT(ngroups, nsup);  // some subtrees were folded into one task

  // Contiguous tiling of 0..nsup-1.
  ASSERT_EQ(sched.group_ptr.front(), 0);
  ASSERT_EQ(sched.group_ptr.back(), nsup);
  ASSERT_EQ(sched.group_work.size(), static_cast<std::size_t>(ngroups));
  std::vector<index_t> group_of(static_cast<std::size_t>(nsup), -1);
  for (index_t g = 0; g < ngroups; ++g) {
    ASSERT_LT(sched.group_ptr[static_cast<std::size_t>(g)],
              sched.group_ptr[static_cast<std::size_t>(g) + 1]);
    for (index_t m = sched.group_ptr[static_cast<std::size_t>(g)];
         m < sched.group_ptr[static_cast<std::size_t>(g) + 1]; ++m) {
      group_of[static_cast<std::size_t>(m)] = g;
    }
  }

  // Each group is its last member's whole subtree or that member alone:
  // every other member's parent is in the group, and the first member is
  // the root's first descendant in postorder.
  std::vector<index_t> first_desc(static_cast<std::size_t>(nsup));
  for (index_t sn = 0; sn < nsup; ++sn) {
    first_desc[static_cast<std::size_t>(sn)] = sn;
  }
  for (index_t sn = 0; sn < nsup; ++sn) {
    const index_t parent = sym.supernodes()[static_cast<std::size_t>(sn)].parent;
    if (parent != -1) {
      auto& f = first_desc[static_cast<std::size_t>(parent)];
      f = std::min(f, first_desc[static_cast<std::size_t>(sn)]);
    }
  }
  double total = 0.0;
  for (const double w : sched.group_work) total += w;
  for (index_t g = 0; g < ngroups; ++g) {
    const index_t first = sched.group_ptr[static_cast<std::size_t>(g)];
    const index_t last = sched.group_ptr[static_cast<std::size_t>(g) + 1] - 1;
    for (index_t m = first; m < last; ++m) {
      const index_t parent =
          sym.supernodes()[static_cast<std::size_t>(m)].parent;
      ASSERT_NE(parent, -1);
      EXPECT_EQ(group_of[static_cast<std::size_t>(parent)], g) << "member " << m;
    }
    if (last > first) {
      EXPECT_EQ(first, first_desc[static_cast<std::size_t>(last)]);
      EXPECT_LE(sched.group_work[static_cast<std::size_t>(g)],
                kSubtreeGroupShare * total * (1.0 + 1e-12));
    }
  }

  // Edges: one per group whose top has a parent, from the group to its
  // parent's group, forward up the tree and backward down it, with num_deps
  // the indegree.
  std::set<std::pair<index_t, index_t>> expected;
  for (index_t g = 0; g < ngroups; ++g) {
    const index_t top = sched.group_ptr[static_cast<std::size_t>(g) + 1] - 1;
    const index_t parent =
        sym.supernodes()[static_cast<std::size_t>(top)].parent;
    if (parent != -1) {
      EXPECT_NE(group_of[static_cast<std::size_t>(parent)], g);
      expected.emplace(g, group_of[static_cast<std::size_t>(parent)]);
    }
  }
  auto edges_of = [&](const CondensedDag& dag, bool reversed) {
    std::set<std::pair<index_t, index_t>> edges;
    std::vector<index_t> indegree(static_cast<std::size_t>(ngroups), 0);
    EXPECT_EQ(dag.succ_ptr.size(), static_cast<std::size_t>(ngroups) + 1);
    for (index_t g = 0; g < ngroups; ++g) {
      for (index_t e = dag.succ_ptr[static_cast<std::size_t>(g)];
           e < dag.succ_ptr[static_cast<std::size_t>(g) + 1]; ++e) {
        const index_t h = dag.succ[static_cast<std::size_t>(e)];
        ++indegree[static_cast<std::size_t>(h)];
        EXPECT_TRUE(edges.emplace(reversed ? h : g, reversed ? g : h).second)
            << "duplicate edge " << g << " -> " << h;
      }
    }
    for (index_t g = 0; g < ngroups; ++g) {
      EXPECT_EQ(dag.num_deps[static_cast<std::size_t>(g)],
                indegree[static_cast<std::size_t>(g)]);
    }
    return edges;
  };
  EXPECT_EQ(edges_of(sched.forward, false), expected);
  EXPECT_EQ(edges_of(sched.backward, true), expected);
  expect_update_layout_is_a_lifo_stack(sym, sched);

  // The cut depends on the pattern alone.
  const SolveSchedule again = build_solve_schedule(sym);
  EXPECT_EQ(again.group_ptr, sched.group_ptr);
  EXPECT_EQ(again.forward.succ, sched.forward.succ);
  EXPECT_EQ(again.backward.succ, sched.backward.succ);

  // Every solve runs the same 2 x groups sweep tasks, bitwise equal to the
  // one-thread solve.
  const index_t n = sym.n();
  const Matrix<double> b = make_block(n, 16);
  const Matrix<double> reference = solve(s.analysis, s.factor, b, 16);
  obs::MetricsRegistry::global().clear();
  obs::enable();
  for (int threads : {1, 2, 4}) {
    for (index_t r : {1, 16}) {
      const double before =
          obs::MetricsRegistry::global().counter("solve.sweep_tasks");
      ParallelSolveOptions options;
      options.threads = threads;
      options.schedule = &sched;
      const Matrix<double> x = solve(s.analysis, s.factor, b, r, options);
      EXPECT_EQ(obs::MetricsRegistry::global().counter("solve.sweep_tasks") -
                    before,
                2.0 * static_cast<double>(ngroups))
          << "threads=" << threads << " r=" << r;
      for (index_t c = 0; c < r; ++c) {
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(x(i, c), reference(i, c))
              << "threads=" << threads << " r=" << r << " col=" << c;
        }
      }
    }
  }
  obs::disable();
  obs::MetricsRegistry::global().clear();
}

TEST(ParallelSolveTest, EstimateOverloadsAgree) {
  const GridProblem p = make_laplacian_3d(6, 5, 4);
  const SolveSetup s = factorize_nd(p);
  const SymbolicFactor& sym = s.analysis.symbolic;
  const SolveSchedule sched = build_solve_schedule(sym);

  // The single-rhs overload IS the blocked estimate at width 1 — one shared
  // implementation, exact equality.
  EXPECT_EQ(estimated_solve_seconds(sym), estimated_solve_seconds(sym, 1));

  // The leveled estimate on one thread degenerates to the serial stream.
  const double serial16 = estimated_solve_seconds(sym, 16);
  const double leveled1 = estimated_solve_seconds(sym, sched, 16, 1);
  EXPECT_NEAR(leveled1, serial16, 1e-9 * serial16);

  // More threads never make the leveled estimate slower, and the critical
  // path keeps it positive.
  double prev = leveled1;
  for (int threads : {2, 4, 8, 64}) {
    const double est = estimated_solve_seconds(sym, sched, 16, threads);
    EXPECT_LE(est, prev);
    EXPECT_GT(est, 0.0);
    prev = est;
  }

  // Blocking wins: one 16-wide pass streams the panels once, far cheaper
  // than 16 single-rhs passes.
  EXPECT_LT(serial16, 16.0 * estimated_solve_seconds(sym, 1));
}

// The estimate is a pattern price: values recorded before the forward
// sweep became multifrontal (when the schedule still stored its dependency
// runs) must come out bitwise, at 1 and 4 threads and 1 and 16 RHS.
TEST(ParallelSolveTest, EstimatesMatchRecordedValues) {
  const GridProblem p = make_laplacian_2d_9pt(40, 40);
  const Analysis an =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));
  const SolveSchedule sched = build_solve_schedule(an.symbolic);
  ASSERT_EQ(an.symbolic.num_supernodes(), 405);
  ASSERT_EQ(sched.num_groups(), 114);
  EXPECT_EQ(estimated_solve_seconds(an.symbolic, sched, 1, 1),
            8.3593333333333345e-05);
  EXPECT_EQ(estimated_solve_seconds(an.symbolic, sched, 16, 1),
            0.00021806833333333329);
  EXPECT_EQ(estimated_solve_seconds(an.symbolic, sched, 1, 4),
            4.710854166666667e-05);
  EXPECT_EQ(estimated_solve_seconds(an.symbolic, sched, 16, 4),
            0.00010660854166666666);
  EXPECT_EQ(estimated_solve_seconds(an.symbolic, 16), 0.00021806833333333332);
}

TEST(ParallelSolveTest, BlockedRefinementMatchesScalarPerColumn) {
  Rng rng(13);
  const GridProblem p = make_elasticity_3d(3, 3, 2, 3, rng);
  Device device;
  const SolveSetup s = factorize_mixed(p, device);
  const index_t n = s.analysis.symbolic.n();
  const index_t kRhs = 3;
  const Matrix<double> b = make_block(n, kRhs);

  ParallelSolveOptions options;
  options.threads = 2;
  const BlockRefineResult block =
      solve_with_refinement(p.matrix, s.analysis, s.factor, b, 5, 1e-14,
                            options);
  ASSERT_EQ(block.residual_norms.size(), static_cast<std::size_t>(kRhs));
  ASSERT_EQ(block.iterations.size(), static_cast<std::size_t>(kRhs));

  for (index_t c = 0; c < kRhs; ++c) {
    const RefineResult scalar = solve_with_refinement(
        p.matrix, s.analysis, s.factor,
        std::span<const double>(b.data() + c * n, static_cast<std::size_t>(n)),
        5, 1e-14, options);
    EXPECT_EQ(block.iterations[static_cast<std::size_t>(c)], scalar.iterations);
    ASSERT_EQ(block.residual_norms[static_cast<std::size_t>(c)].size(),
              scalar.residual_norms.size());
    for (std::size_t i = 0; i < scalar.residual_norms.size(); ++i) {
      EXPECT_EQ(block.residual_norms[static_cast<std::size_t>(c)][i],
                scalar.residual_norms[i]);
    }
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(block.x(i, c), scalar.x[static_cast<std::size_t>(i)])
          << "col=" << c << " row=" << i;
    }
  }
}

TEST(ParallelSolveTest, SolverSolveThreadsIsBitwiseInvariant) {
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  std::vector<double> b(static_cast<std::size_t>(p.matrix.n()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.01 * static_cast<double>(i % 17);
  }

  SolverOptions serial_options;
  const Solver serial(p.matrix, serial_options);
  const std::vector<double> x1 = serial.solve(b);

  SolverOptions threaded_options;
  threaded_options.solve_threads = 4;
  const Solver threaded(p.matrix, threaded_options);
  const std::vector<double> x4 = threaded.solve(b);

  ASSERT_EQ(x1.size(), x4.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x1[i], x4[i]) << "row=" << i;
  }

  // Multi-RHS facade path too.
  const index_t n = p.matrix.n();
  const Matrix<double> rhs = make_block(n, 3);
  const Matrix<double> b1 = serial.solve(rhs);
  const Matrix<double> b4 = threaded.solve(rhs);
  for (index_t c = 0; c < 3; ++c) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(b1(i, c), b4(i, c)) << "col=" << c << " row=" << i;
    }
  }
}

}  // namespace
}  // namespace mfgpu
