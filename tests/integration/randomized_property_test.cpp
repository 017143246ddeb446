// Randomized property sweeps: the solver pipeline must hold its invariants
// for arbitrary SPD inputs, any ordering, and any policy path.
#include <gtest/gtest.h>

#include <cmath>

#include "multifrontal/parallel_solve.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "policy/executors.hpp"
#include "sparse/dense_convert.hpp"
#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

double solve_residual(const SparseSpd& a, const Analysis& an,
                      const Factorization& factor) {
  std::vector<double> ones(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(ones.size());
  a.multiply(ones, b);
  const auto x = solve(an, factor, b);
  return residual_norm(a, x, b);
}

class RandomPatternPipeline : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternPipeline, FactorsAndSolvesRandomSpd) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const index_t n = 40 + 30 * GetParam();
  const SparseSpd a = make_random_spd(n, 3 + GetParam() % 5, rng);
  const Analysis an = analyze(a, minimum_degree(build_graph(a)));

  // Symbolic invariants on an irregular pattern.
  index_t cols = 0;
  for (const auto& sn : an.symbolic.supernodes()) {
    cols += sn.width();
    if (sn.parent != -1) {
      EXPECT_EQ(sn.parent, an.symbolic.snode_of_col(sn.update_rows.front()));
    }
  }
  EXPECT_EQ(cols, a.n());

  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  const FactorizeResult result = factorize(an, p1, ctx);
  const double scale = std::sqrt(static_cast<double>(n));
  EXPECT_LT(solve_residual(a, an, result.factor), 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternPipeline,
                         ::testing::Range(1, 9));

struct PathCase {
  int ordering;  // 0 = natural, 1 = MD, 2 = ND, 3 = RCM
  int policy;    // 1..4
};

class PipelinePaths : public ::testing::TestWithParam<PathCase> {};

TEST_P(PipelinePaths, EveryOrderingPolicyComboSolves) {
  const PathCase pc = GetParam();
  Rng rng(77);
  const GridProblem p = make_elasticity_3d(3, 4, 3, 3, rng);
  Permutation perm = Permutation::identity(p.matrix.n());
  switch (pc.ordering) {
    case 0: break;
    case 1: perm = minimum_degree(build_graph(p.matrix)); break;
    case 2: perm = nested_dissection(p.coords); break;
    case 3: perm = reverse_cuthill_mckee(build_graph(p.matrix)); break;
  }
  const Analysis an = analyze(p.matrix, perm);

  PolicyExecutor exec(policy_from_index(pc.policy));
  FactorContext ctx;
  Device device;
  ctx.device = &device;
  const FactorizeResult result = factorize(an, exec, ctx);

  std::vector<double> ones(static_cast<std::size_t>(p.matrix.n()), 1.0);
  std::vector<double> b(ones.size());
  p.matrix.multiply(ones, b);
  const RefineResult refined =
      solve_with_refinement(p.matrix, an, result.factor, b, 6, 1e-12);
  for (double v : refined.x) {
    EXPECT_NEAR(v, 1.0, 1e-6) << "ordering=" << pc.ordering
                              << " policy=" << pc.policy;
  }
}

std::vector<PathCase> all_paths() {
  std::vector<PathCase> cases;
  for (int ordering = 0; ordering < 4; ++ordering) {
    for (int policy = 1; policy <= 4; ++policy) {
      cases.push_back(PathCase{ordering, policy});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, PipelinePaths, ::testing::ValuesIn(all_paths()));

TEST(DeterminismTest, RepeatedRunsProduceIdenticalVirtualTimes) {
  Rng rng(9);
  const GridProblem p = make_elasticity_3d(4, 4, 3, 3, rng);
  const Analysis an = analyze(p.matrix, nested_dissection(p.coords));
  auto run_once = [&an]() {
    PolicyExecutor p3(Policy::P3);
    FactorContext ctx;
    Device device;
    ctx.device = &device;
    return factorize(an, p3, ctx).trace.total_time;
  };
  const double first = run_once();
  const double second = run_once();
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(DeterminismTest, DenseFactorMatchesAcrossOrderings) {
  // Solving with two different orderings must give the same x.
  Rng rng(13);
  const SparseSpd a = make_random_spd(60, 5, rng);
  std::vector<double> b(60);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  auto solve_with = [&](const Permutation& perm) {
    const Analysis an = analyze(a, perm);
    PolicyExecutor p1(Policy::P1);
    FactorContext ctx;
    const FactorizeResult result = factorize(an, p1, ctx);
    return solve(an, result.factor, b);
  };
  const auto x_md = solve_with(minimum_degree(build_graph(a)));
  const auto x_nat = solve_with(Permutation::identity(a.n()));
  for (std::size_t i = 0; i < x_md.size(); ++i) {
    EXPECT_NEAR(x_md[i], x_nat[i], 1e-8);
  }
}

}  // namespace
}  // namespace mfgpu
