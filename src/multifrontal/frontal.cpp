#include "multifrontal/frontal.hpp"

#include <algorithm>

#include "multifrontal/stack_arena.hpp"

namespace mfgpu {

FrontalMatrix::FrontalMatrix(const SupernodeInfo& sn)
    : sn_(&sn), k_(sn.width()), m_(sn.num_update_rows()) {}

FrontalMatrix::FrontalMatrix(const SupernodeInfo& sn, MatrixView<double> panel,
                             MatrixView<double> update,
                             std::span<index_t> scratch)
    : sn_(&sn),
      k_(sn.width()),
      m_(sn.num_update_rows()),
      numeric_(true),
      panel_(panel),
      update_(update),
      scratch_(scratch) {
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

index_t FrontalMatrix::assemble_from_matrix(const SparseSpd& a) {
  index_t moved = 0;
  for (index_t j = sn_->first_col; j < sn_->last_col; ++j) {
    const auto rows = a.column_rows(j);
    moved += static_cast<index_t>(rows.size());
    if (!numeric_) continue;
    const auto vals = a.column_values(j);
    double* const column = panel_.data() + (j - sn_->first_col) * panel_.ld();
    RowMerge merge(*sn_);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      column[merge.next(rows[t])] += vals[t];
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

  MFGPU_CHECK(scratch_.size() >= child_rows.size(),
              "extend_add: relative-index scratch too small");
  index_t* const rel = scratch_.data();
  RowMerge merge(*sn_);
  for (index_t t = 0; t < mc; ++t) rel[t] = merge.next(child_rows[t]);
  // Both rel indices increase with their arguments, so rel[i] >= rel[j] and
  // the target stays in the lower triangle. Child columns that are this
  // supernode's columns come first and land in the panel; the rest land in
  // the update block, shifted by k. The packed columns are read in order.
  const double* src = child_update_packed.data();
  for (index_t j = 0; j < mc; ++j) {
    const index_t cj = rel[j];
    if (cj < k_) {
      double* const column = panel_.data() + cj * panel_.ld();
      for (index_t i = j; i < mc; ++i) column[rel[i]] += *src++;
    } else {
      double* const column = update_.data() + (cj - k_) * update_.ld();
      for (index_t i = j; i < mc; ++i) column[rel[i] - k_] += *src++;
    }
  }
  return entries;
}

index_t FrontalMatrix::pack_update(std::span<double> out) const {
  const index_t entries = packed_lower_size(m_);
  MFGPU_CHECK(static_cast<index_t>(out.size()) == entries,
              "pack_update: output size mismatch");
  if (!numeric_) return entries;
  double* dst = out.data();
  for (index_t j = 0; j < m_; ++j) {
    const double* const tail = update_.data() + j * update_.ld() + j;
    dst = std::copy(tail, tail + (m_ - j), dst);
  }
  return entries;
}

}  // namespace mfgpu
