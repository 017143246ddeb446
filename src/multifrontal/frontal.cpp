#include "multifrontal/frontal.hpp"

#include <algorithm>

#include "multifrontal/stack_arena.hpp"

namespace mfgpu {

namespace {

std::vector<index_t> front_rows(const SupernodeInfo& sn) {
  std::vector<index_t> rows;
  rows.reserve(static_cast<std::size_t>(sn.front_order()));
  for (index_t j = sn.first_col; j < sn.last_col; ++j) rows.push_back(j);
  rows.insert(rows.end(), sn.update_rows.begin(), sn.update_rows.end());
  return rows;
}

}  // namespace

FrontalMatrix::FrontalMatrix(const SupernodeInfo& sn)
    : k_(sn.width()), m_(sn.num_update_rows()), rows_(front_rows(sn)) {}

FrontalMatrix::FrontalMatrix(const SupernodeInfo& sn, MatrixView<double> panel,
                             MatrixView<double> update)
    : k_(sn.width()),
      m_(sn.num_update_rows()),
      numeric_(true),
      rows_(front_rows(sn)),
      panel_(panel),
      update_(update) {
  MFGPU_CHECK(panel.rows() == order() && panel.cols() == k_ &&
                  update.rows() == m_ && update.cols() == m_,
              "FrontalMatrix: storage shape mismatch");
}

MatrixView<double> FrontalMatrix::panel() const {
  MFGPU_CHECK(numeric_, "FrontalMatrix: no storage in dry-run mode");
  return panel_;
}

MatrixView<double> FrontalMatrix::update() const {
  MFGPU_CHECK(numeric_, "FrontalMatrix: no storage in dry-run mode");
  return update_;
}

index_t FrontalMatrix::local_index(index_t global_row) const {
  // Front rows = [first_col .. last_col) ++ update_rows; the first segment
  // maps directly, the second via binary search (rows_ is sorted).
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), global_row);
  MFGPU_CHECK(it != rows_.end() && *it == global_row,
              "FrontalMatrix: row not part of this front");
  return static_cast<index_t>(it - rows_.begin());
}

index_t FrontalMatrix::assemble_from_matrix(const SparseSpd& a,
                                            const SupernodeInfo& sn) {
  index_t moved = 0;
  for (index_t j = sn.first_col; j < sn.last_col; ++j) {
    const index_t local_col = j - sn.first_col;
    const auto rows = a.column_rows(j);
    const auto vals = a.column_values(j);
    moved += static_cast<index_t>(rows.size());
    if (!numeric_) continue;
    for (std::size_t t = 0; t < rows.size(); ++t) {
      panel_(local_index(rows[t]), local_col) += vals[t];
    }
  }
  return moved;
}

index_t FrontalMatrix::extend_add(std::span<const index_t> child_rows,
                                  std::span<const double> child_update_packed) {
  const index_t mc = static_cast<index_t>(child_rows.size());
  MFGPU_CHECK(static_cast<index_t>(child_update_packed.size()) ==
                  packed_lower_size(mc),
              "extend_add: packed size mismatch");
  const index_t entries = packed_lower_size(mc);
  if (!numeric_) return entries;

  // Relative indices: child rows are a subset of this front's rows.
  std::vector<index_t> rel(static_cast<std::size_t>(mc));
  for (index_t t = 0; t < mc; ++t) {
    rel[static_cast<std::size_t>(t)] = local_index(child_rows[static_cast<std::size_t>(t)]);
  }
  // Both rel indices increase with their arguments, so ci >= cj and the
  // target stays in the lower triangle. Child columns that are this
  // supernode's columns come first and land in the panel; the rest land in
  // the update block, shifted by k.
  for (index_t j = 0; j < mc; ++j) {
    const index_t cj = rel[static_cast<std::size_t>(j)];
    const double* column =
        child_update_packed.data() + packed_index(mc, j, j) - j;
    if (cj < k_) {
      for (index_t i = j; i < mc; ++i) {
        panel_(rel[static_cast<std::size_t>(i)], cj) += column[i];
      }
    } else {
      for (index_t i = j; i < mc; ++i) {
        update_(rel[static_cast<std::size_t>(i)] - k_, cj - k_) += column[i];
      }
    }
  }
  return entries;
}

index_t FrontalMatrix::pack_update(std::span<double> out) const {
  const index_t entries = packed_lower_size(m_);
  MFGPU_CHECK(static_cast<index_t>(out.size()) == entries,
              "pack_update: output size mismatch");
  if (!numeric_) return entries;
  for (index_t j = 0; j < m_; ++j) {
    for (index_t i = j; i < m_; ++i) {
      out[static_cast<std::size_t>(packed_index(m_, i, j))] = update_(i, j);
    }
  }
  return entries;
}

}  // namespace mfgpu
