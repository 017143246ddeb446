#include "symbolic/supernodes.hpp"

namespace mfgpu {
namespace {

// Relaxation thresholds on the merged width k and the fraction of explicit
// zeros the merge adds.
constexpr index_t kTinyWidth = 4;     ///< always merge at or below this width
constexpr index_t kSmallWidth = 16;   ///< merge if zeros <= kSmallZeros
constexpr double kSmallZeros = 0.8;
constexpr index_t kMediumWidth = 48;  ///< merge if zeros <= kMediumZeros
constexpr double kMediumZeros = 0.1;
constexpr double kLargeZeros = 0.05;  ///< any width: merge if zeros <= this

}  // namespace

SupernodePartition fundamental_supernodes(std::span<const index_t> parent,
                                          std::span<const index_t> colcount) {
  const index_t n = static_cast<index_t>(parent.size());
  MFGPU_CHECK(static_cast<index_t>(colcount.size()) == n,
              "supernodes: colcount size mismatch");

  // Number of etree children per column: a column can only extend the
  // current supernode if it has exactly one child (the previous column);
  // otherwise merging would change the structure of other children's rows.
  std::vector<index_t> num_children(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    const index_t p = parent[static_cast<std::size_t>(j)];
    if (p != -1) ++num_children[static_cast<std::size_t>(p)];
  }

  SupernodePartition part;
  part.snode_of_col.assign(static_cast<std::size_t>(n), 0);
  part.start.push_back(0);
  for (index_t j = 1; j < n; ++j) {
    const bool chained = parent[static_cast<std::size_t>(j) - 1] == j &&
                         num_children[static_cast<std::size_t>(j)] == 1 &&
                         colcount[static_cast<std::size_t>(j)] ==
                             colcount[static_cast<std::size_t>(j) - 1] - 1;
    if (!chained) part.start.push_back(j);
    part.snode_of_col[static_cast<std::size_t>(j)] =
        static_cast<index_t>(part.start.size()) - 1;
  }
  if (n > 0) part.start.push_back(n);  // an empty matrix has no supernode
  return part;
}

index_t front_factor_nnz(index_t k, index_t m) {
  return k * (k + 1) / 2 + m * k;
}

bool should_amalgamate(index_t k_child, index_t m_child, index_t k_parent,
                       index_t m_parent, index_t m_merged,
                       const RelaxOptions& options) {
  if (!options.enabled) return false;
  const index_t k = k_child + k_parent;
  const index_t old_nnz =
      front_factor_nnz(k_child, m_child) + front_factor_nnz(k_parent, m_parent);
  const index_t new_nnz = front_factor_nnz(k, m_merged);
  MFGPU_CHECK(new_nnz >= old_nnz, "amalgamate: merged front cannot shrink");
  const double zero_fraction =
      static_cast<double>(new_nnz - old_nnz) / static_cast<double>(new_nnz);
  if (k <= kTinyWidth) return true;
  if (k <= kSmallWidth && zero_fraction <= kSmallZeros) return true;
  if (k <= kMediumWidth && zero_fraction <= kMediumZeros) return true;
  return zero_fraction <= kLargeZeros;
}

}  // namespace mfgpu
