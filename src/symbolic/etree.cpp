#include "symbolic/etree.hpp"

#include <algorithm>
#include <numeric>

namespace mfgpu {
namespace {

/// Liu's algorithm needs, for each column k, every i < k with B(i, k) != 0:
/// the strict upper triangle by rows, which for lower-triangular column
/// storage is the transpose. `label` maps a stored index to its index in B.
/// The rows are bucketed flat (one counting pass, one fill pass); the order
/// within a bucket does not matter to the tree.
template <typename Label>
std::vector<index_t> liu_etree(const SparseSpd& a, Label label) {
  const index_t n = a.n();
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j) {
    const index_t nj = label(j);
    for (index_t p = col_ptr[static_cast<std::size_t>(j)] + 1;
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t ni = label(row_idx[static_cast<std::size_t>(p)]);
      ++row_ptr[static_cast<std::size_t>(std::max(ni, nj)) + 1];
    }
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<index_t> row_cols(static_cast<std::size_t>(row_ptr.back()));
  {
    std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (index_t j = 0; j < n; ++j) {
      const index_t nj = label(j);
      for (index_t p = col_ptr[static_cast<std::size_t>(j)] + 1;
           p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
        const index_t ni = label(row_idx[static_cast<std::size_t>(p)]);
        const auto r = static_cast<std::size_t>(std::max(ni, nj));
        row_cols[static_cast<std::size_t>(next[r]++)] = std::min(ni, nj);
      }
    }
  }

  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t t = row_ptr[static_cast<std::size_t>(j)];
         t < row_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
      // Walk from i to the root of its current subtree, compressing paths.
      index_t v = row_cols[static_cast<std::size_t>(t)];
      while (v != -1 && v < j) {
        const index_t next = ancestor[static_cast<std::size_t>(v)];
        ancestor[static_cast<std::size_t>(v)] = j;
        if (next == -1) {
          parent[static_cast<std::size_t>(v)] = j;
          break;
        }
        v = next;
      }
    }
  }
  return parent;
}

}  // namespace

std::vector<index_t> elimination_tree(const SparseSpd& a) {
  return liu_etree(a, [](index_t i) { return i; });
}

std::vector<index_t> elimination_tree(const SparseSpd& a,
                                      std::span<const index_t> new_of_old) {
  MFGPU_CHECK(static_cast<index_t>(new_of_old.size()) == a.n(),
              "elimination_tree: permutation size mismatch");
  return liu_etree(
      a, [new_of_old](index_t i) { return new_of_old[static_cast<std::size_t>(i)]; });
}

}  // namespace mfgpu
