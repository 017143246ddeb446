// Golden analysis values: the fill ordering, the supernode structure and the
// value map of a fixed set of inputs, pinned as literals. Any change to
// ordering or symbolic analysis that is meant to be exact must keep every
// literal here unedited; a change that is meant to alter the analysis must
// say so by updating them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ordering/minimum_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/postorder.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, index_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= static_cast<std::uint64_t>(value >> (8 * b)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t hash_indices(std::span<const index_t> values) {
  std::uint64_t h = fnv1a(kFnvBasis, static_cast<index_t>(values.size()));
  for (index_t v : values) h = fnv1a(h, v);
  return h;
}

std::uint64_t hash_supernodes(const SymbolicFactor& sym) {
  std::uint64_t h = fnv1a(kFnvBasis, sym.num_supernodes());
  for (const SupernodeInfo& sn : sym.supernodes()) {
    h = fnv1a(h, sn.first_col);
    h = fnv1a(h, sn.last_col);
    h = fnv1a(h, sn.parent);
    h = fnv1a(h, sn.num_update_rows());
    for (index_t r : sn.update_rows) h = fnv1a(h, r);
  }
  return h;
}

struct Golden {
  std::uint64_t perm_hash;
  std::uint64_t snode_hash;
  std::uint64_t value_source_hash;
  index_t factor_nnz;
  double factor_flops;
  index_t peak_stack;
};

void expect_golden(const std::string& label, const Analysis& an,
                   const Golden& want) {
  const Golden got{hash_indices(an.perm.new_of_old()),
                   hash_supernodes(an.symbolic),
                   hash_indices(*an.value_source),
                   an.symbolic.factor_nnz(),
                   an.symbolic.factor_flops(),
                   an.symbolic.peak_update_stack_entries()};
  SCOPED_TRACE(label);
  EXPECT_EQ(got.perm_hash, want.perm_hash);
  EXPECT_EQ(got.snode_hash, want.snode_hash);
  EXPECT_EQ(got.value_source_hash, want.value_source_hash);
  EXPECT_EQ(got.factor_nnz, want.factor_nnz);
  EXPECT_EQ(got.factor_flops, want.factor_flops);
  EXPECT_EQ(got.peak_stack, want.peak_stack);
  // On a mismatch, print the row to paste when a change is meant to alter
  // the analysis.
  if (::testing::Test::HasFailure()) {
    std::printf("      {0x%016llxull, 0x%016llxull, 0x%016llxull, %lld, %.17g, %lld},\n",
                static_cast<unsigned long long>(got.perm_hash),
                static_cast<unsigned long long>(got.snode_hash),
                static_cast<unsigned long long>(got.value_source_hash),
                static_cast<long long>(got.factor_nnz), got.factor_flops,
                static_cast<long long>(got.peak_stack));
  }
}

Analysis analyze_md(const SparseSpd& a, bool supervariables = true) {
  MinimumDegreeOptions options;
  options.supervariables = supervariables;
  return analyze(a, minimum_degree(build_graph(a), options));
}

/// `a` with a path of `length` unknowns hung off its last unknown.
SparseSpd append_chain(const SparseSpd& a, index_t length) {
  const index_t n = a.n() + length;
  Coo coo(n);
  for (index_t j = 0; j < a.n(); ++j) {
    const auto rows = a.column_rows(j);
    const auto vals = a.column_values(j);
    for (std::size_t t = 0; t < rows.size(); ++t) coo.add(rows[t], j, vals[t]);
  }
  for (index_t i = a.n(); i < n; ++i) {
    coo.add(i, i, 4.0);
    coo.add(i, i - 1, -1.0);
  }
  return coo.to_csc();
}

TEST(AnalysisGoldenTest, ServePatternGridsUnderMinimumDegree) {
  struct Spec {
    index_t nx, ny, nz, dof;
  };
  // The eight grid patterns of the serving benchmark.
  const Spec specs[8] = {{17, 17, 17, 1}, {9, 9, 9, 3},    {16, 16, 16, 1},
                         {19, 19, 19, 1}, {14, 14, 14, 1}, {10, 10, 10, 3},
                         {15, 15, 15, 1}, {13, 13, 13, 1}};
  const Golden want[8] = {
      {0x834993caeb1c7e8aull, 0xaffad1a548cb927full, 0x8530c8bf810e161aull, 413073, 97305126, 232405},
      {0xd37fb4519d04205bull, 0x50d36f1005090dd7ull, 0xc3660e0e67cefe23ull, 454482, 135526365, 331038},
      {0xa94f0d18af34bfc3ull, 0xbdeb65eaa24a6e1full, 0x9a385b5824ffc9ecull, 324182, 69384480, 194231},
      {0x1b44355645796eb7ull, 0x023831719fc649f2ull, 0x32d17f22c67d5262ull, 696538, 221245473, 375017},
      {0xf915e262e23ce7c9ull, 0x1d32bcc32211667bull, 0xd4824ce59b2c593bull, 175652, 27652962, 100793},
      {0xf5a8f4b8077330a2ull, 0x2ad4bd482f307bcdull, 0x8515cb1b7e97f72bull, 720942, 259446546, 487803},
      {0xd6bfda60c1091f9full, 0x0d983d41db313d86ull, 0xda0566bc7f401502ull, 228241, 41310997, 137777},
      {0x13e6c4eae7487a0aull, 0x4657f7788eb71ba6ull, 0x9ae4639b6ad97842ull, 120427, 15779971, 70897},
  };
  for (std::size_t i = 0; i < 8; ++i) {
    const Spec& s = specs[i];
    Rng rng(100 + i);
    const GridProblem grid =
        s.dof == 1 ? make_laplacian_3d(s.nx, s.ny, s.nz)
                   : make_elasticity_3d(s.nx, s.ny, s.nz, s.dof, rng);
    expect_golden(grid.name, analyze_md(grid.matrix), want[i]);
  }
}

TEST(AnalysisGoldenTest, ElasticityWithAppendedChain) {
  Rng rng(7);
  const GridProblem grid = make_elasticity_3d(7, 6, 5, 3, rng);
  expect_golden("elasticity+chain", analyze_md(append_chain(grid.matrix, 40)),
                {0xe87880afdf14ba2aull, 0xdb7af2695026bc02ull, 0x464564ed4d10117bull, 54995, 5351855, 29058});
}

TEST(AnalysisGoldenTest, NinePointGrid) {
  const GridProblem grid = make_laplacian_2d_9pt(60, 50);
  expect_golden("9pt", analyze_md(grid.matrix),
                {0x19903ef4ea0d1bfeull, 0x5e1cec3d0bc2f397ull, 0x7ac7a17efeed8374ull, 92566, 4024792, 11910});
}

TEST(AnalysisGoldenTest, MinimumDegreeWithoutSupervariables) {
  Rng rng(11);
  const GridProblem grid = make_elasticity_3d(6, 5, 5, 3, rng);
  expect_golden("md-no-supervariables",
                analyze_md(grid.matrix, /*supervariables=*/false),
                {0x0d77b192aed64b57ull, 0x0da2f57da97a27f8ull, 0xf3be14085f8c3dc6ull, 42192, 4842828, 38928});
  const GridProblem lap = make_laplacian_3d(12, 11, 10);
  expect_golden("md-no-supervariables-lap",
                analyze_md(lap.matrix, /*supervariables=*/false),
                {0xb8919c638956e44cull, 0x010d9cf1345f7f1cull, 0xefef0b5428fda859ull, 59434, 5549954, 34587});
}

TEST(AnalysisGoldenTest, GeometricNestedDissection) {
  Rng rng(13);
  const GridProblem grid = make_elasticity_3d(8, 7, 6, 3, rng);
  expect_golden("nd", analyze(grid.matrix, nested_dissection(grid.coords)),
                {0x15792a1eea8cac7aull, 0xd3f4e6a520824656ull, 0xe9911b2cda90e396ull, 113418, 14168844, 44103});
}

TEST(AnalysisGoldenTest, NaturalOrderOfARandomPattern) {
  // The natural order's etree is not postordered here, so analyze composes
  // a non-trivial postorder.
  Rng rng(17);
  const SparseSpd a = make_random_spd(400, 4, rng);
  ASSERT_FALSE(is_postordered(elimination_tree(a)));
  expect_golden("natural", analyze(a, Permutation::identity(a.n())),
                {0x0500838c3fd792a0ull, 0xbaf73cb0a58706a6ull, 0xe2bb0d5433ff519eull, 28971, 3956774, 9737});
  expect_golden("random-md", analyze_md(a),
                {0xa74ee908d6969eacull, 0xbbbb9acb68df6aa6ull, 0x72bb5cb48d6f090eull, 8919, 450440, 6856});
}

TEST(AnalysisGoldenTest, DisconnectedPatternWithIsolatedVertices) {
  // Two grids side by side, separated and followed by unknowns that couple
  // to nothing.
  const SparseSpd a = make_laplacian_3d(6, 5, 4).matrix;
  const SparseSpd b = make_laplacian_2d_9pt(9, 8).matrix;
  const index_t gap = 5;
  const index_t n = a.n() + gap + b.n() + gap;
  Coo coo(n);
  auto add_block = [&](const SparseSpd& m, index_t offset) {
    for (index_t j = 0; j < m.n(); ++j) {
      const auto rows = m.column_rows(j);
      const auto vals = m.column_values(j);
      for (std::size_t t = 0; t < rows.size(); ++t) {
        coo.add(rows[t] + offset, j + offset, vals[t]);
      }
    }
  };
  add_block(a, 0);
  add_block(b, a.n() + gap);
  for (index_t i = a.n(); i < a.n() + gap; ++i) coo.add(i, i, 1.0);
  for (index_t i = n - gap; i < n; ++i) coo.add(i, i, 1.0);
  const SparseSpd m = coo.to_csc();
  expect_golden("disconnected-md", analyze_md(m),
                {0x707f29b33e887228ull, 0x1b1f17ba43751cf4ull, 0xb4ae193eee8ffaa7ull, 2544, 41136, 877});
  expect_golden("disconnected-natural", analyze(m, Permutation::identity(n)),
                {0x9f711c1d1beb2108ull, 0xdc40cf0aa64c6009ull, 0x2ef918a8127550ebull, 9412, 661050, 45});
}

}  // namespace
}  // namespace mfgpu
