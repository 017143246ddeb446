// Randomized properties of the elimination tree and the column counts: both
// must equal a brute-force symbolic Cholesky factorization, on random sparse
// patterns in their natural (generally not postordered) order and after a
// random symmetric permutation.
#include <gtest/gtest.h>

#include <vector>

#include "sparse/coo.hpp"
#include "support/rng.hpp"
#include "symbolic/colcounts.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {
namespace {

struct BruteForce {
  std::vector<index_t> parent;
  std::vector<index_t> counts;
};

/// Dense boolean right-looking elimination: column j's structure is
/// scattered into every later column it updates.
BruteForce symbolic_cholesky(const SparseSpd& a) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<std::vector<char>> nz(n, std::vector<char>(n, 0));
  for (index_t j = 0; j < a.n(); ++j) {
    for (index_t i : a.column_rows(j)) {
      nz[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
  }
  BruteForce out{std::vector<index_t>(n, -1), std::vector<index_t>(n, 0)};
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::size_t> below;
    for (std::size_t i = j + 1; i < n; ++i) {
      if (nz[i][j]) below.push_back(i);
    }
    for (std::size_t x = 0; x < below.size(); ++x) {
      for (std::size_t y = x; y < below.size(); ++y) {
        nz[below[y]][below[x]] = 1;
      }
    }
    out.counts[j] = static_cast<index_t>(below.size()) + 1;
    if (!below.empty()) out.parent[j] = static_cast<index_t>(below.front());
  }
  return out;
}

/// Row-subtree column counts: for each row, walk the etree up from every
/// off-diagonal entry until a column already counted for that row. O(nnz(L)).
std::vector<index_t> row_subtree_counts(const SparseSpd& a,
                                        std::span<const index_t> parent) {
  const index_t n = a.n();
  std::vector<std::vector<index_t>> row_cols(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {
      row_cols[static_cast<std::size_t>(rows[t])].push_back(j);
    }
  }
  std::vector<index_t> count(static_cast<std::size_t>(n), 1);
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    mark[static_cast<std::size_t>(i)] = i;
    for (index_t j : row_cols[static_cast<std::size_t>(i)]) {
      while (j != -1 && j < i && mark[static_cast<std::size_t>(j)] != i) {
        mark[static_cast<std::size_t>(j)] = i;
        ++count[static_cast<std::size_t>(j)];
        j = parent[static_cast<std::size_t>(j)];
      }
    }
  }
  return count;
}

SparseSpd random_pattern(index_t n, double density, Rng& rng) {
  Coo coo(n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, static_cast<double>(n));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      if (rng.bernoulli(density)) coo.add(i, j, -0.5);
    }
  }
  return coo.to_csc();
}

TEST(SymbolicPropertyTest, EtreeAndCountsMatchBruteForceCholesky) {
  Rng rng(20261019);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t n = rng.uniform_int(1, 70);
    const double density = rng.log_uniform(0.005, 0.3);
    const SparseSpd natural = random_pattern(n, density, rng);
    const std::vector<index_t> shuffle = rng.permutation(n);
    for (const SparseSpd& a : {natural, natural.permuted(shuffle)}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n));
      const BruteForce want = symbolic_cholesky(a);
      const std::vector<index_t> parent = elimination_tree(a);
      ASSERT_EQ(parent, want.parent);
      EXPECT_EQ(factor_column_counts(a, parent), want.counts);
    }
  }
}

TEST(SymbolicPropertyTest, CountsMatchRowSubtreeWalkOnLargerPatterns) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const index_t n = rng.uniform_int(200, 600);
    const SparseSpd a = random_pattern(n, 3.0 / static_cast<double>(n), rng);
    const std::vector<index_t> parent = elimination_tree(a);
    EXPECT_EQ(factor_column_counts(a, parent), row_subtree_counts(a, parent))
        << "trial " << trial;
    // The same pattern in postorder.
    const std::vector<index_t> post = postorder_forest(parent);
    std::vector<index_t> new_of_old(static_cast<std::size_t>(n));
    for (index_t p = 0; p < n; ++p) {
      new_of_old[static_cast<std::size_t>(post[static_cast<std::size_t>(p)])] = p;
    }
    const SparseSpd b = a.permuted(new_of_old);
    const std::vector<index_t> post_parent = elimination_tree(b);
    EXPECT_TRUE(is_postordered(post_parent));
    EXPECT_EQ(factor_column_counts(b, post_parent),
              row_subtree_counts(b, post_parent));
  }
}

}  // namespace
}  // namespace mfgpu
