#include "symbolic/colcounts.hpp"

#include <numeric>

#include "symbolic/postorder.hpp"

namespace mfgpu {

std::vector<index_t> factor_column_counts(const SparseSpd& a,
                                          std::span<const index_t> parent) {
  const index_t n = a.n();
  MFGPU_CHECK(static_cast<index_t>(parent.size()) == n,
              "colcounts: parent size mismatch");
  const std::vector<index_t> post = postorder_forest(parent);
  const auto at = [](std::vector<index_t>& v, index_t i) -> index_t& {
    return v[static_cast<std::size_t>(i)];
  };

  // delta[j] accumulates, bottom-up, into the count of column j: +1 for a
  // leaf column (its diagonal), +1 per skeleton entry A(i, j), -1 per child
  // (the child's row i entries continue into j) and -1 at the least common
  // ancestor of consecutive leaves of one row subtree (counted twice).
  std::vector<index_t> delta(static_cast<std::size_t>(n));
  // first[j]: postorder position of j's first descendant.
  std::vector<index_t> first(static_cast<std::size_t>(n), -1);
  for (index_t k = 0; k < n; ++k) {
    index_t j = post[static_cast<std::size_t>(k)];
    at(delta, j) = at(first, j) == -1 ? 1 : 0;
    for (; j != -1 && at(first, j) == -1; j = parent[static_cast<std::size_t>(j)]) {
      at(first, j) = k;
    }
  }

  // Per row i: the largest first[] of a leaf seen so far, and that leaf.
  std::vector<index_t> max_first(static_cast<std::size_t>(n), -1);
  std::vector<index_t> prev_leaf(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n));
  std::iota(ancestor.begin(), ancestor.end(), index_t{0});
  for (index_t k = 0; k < n; ++k) {
    const index_t j = post[static_cast<std::size_t>(k)];
    const index_t pj = parent[static_cast<std::size_t>(j)];
    if (pj != -1) --at(delta, pj);
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {  // i > j
      const index_t i = rows[t];
      // j is a leaf of row i's subtree iff no earlier leaf lies in j's
      // subtree.
      if (at(first, j) <= at(max_first, i)) continue;
      at(max_first, i) = at(first, j);
      const index_t prev = at(prev_leaf, i);
      at(prev_leaf, i) = j;
      ++at(delta, j);
      if (prev == -1) continue;
      // Least common ancestor of the previous leaf and j: the root of the
      // previous leaf's set, with path compression.
      index_t q = prev;
      while (q != at(ancestor, q)) q = at(ancestor, q);
      for (index_t s = prev; s != q;) {
        const index_t up = at(ancestor, s);
        at(ancestor, s) = q;
        s = up;
      }
      --at(delta, q);
    }
    if (pj != -1) at(ancestor, j) = pj;
  }

  // Children precede parents in index order (parent[j] > j).
  for (index_t j = 0; j < n; ++j) {
    const index_t pj = parent[static_cast<std::size_t>(j)];
    if (pj != -1) at(delta, pj) += at(delta, j);
  }
  return delta;
}

}  // namespace mfgpu
