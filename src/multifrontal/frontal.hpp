// Frontal matrix assembly: scatter of original-matrix entries and
// extend-add of children's update matrices via relative indices.
#pragma once

#include <span>

#include "dense/matrix.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// Front rows of ascending global rows, by one merge against the front's
/// sorted rows: rows below last_col are the supernode's own columns and map
/// by offset, the rest advance one cursor along the update rows. Front row
/// i < k is column first_col + i, row k + t is update row t. The factor's
/// assembly and extend-add and the solve's extend-add all map rows by it.
class RowMerge {
 public:
  explicit RowMerge(const SupernodeInfo& sn) : sn_(sn) {}

  index_t next(index_t row) {
    if (row < sn_.last_col) {
      MFGPU_CHECK(row >= sn_.first_col,
                  "FrontalMatrix: row not part of this front");
      return row - sn_.first_col;
    }
    const std::span<const index_t> rows = sn_.update_rows;
    while (u_ < rows.size() && rows[u_] < row) ++u_;
    MFGPU_CHECK(u_ < rows.size() && rows[u_] == row,
                "FrontalMatrix: row not part of this front");
    return sn_.width() + static_cast<index_t>(u_);
  }

 private:
  const SupernodeInfo& sn_;
  std::size_t u_ = 0;
};

/// One front of order s = k + m, in two blocks of caller storage: the
/// panel (s x k: the supernode's columns, L1 on top of L2), which the
/// drivers place in the factor's own store, and the m x m update block.
/// Only lower triangles are referenced. Front row/column i is global
/// (permuted) index first_col + i for i < k, the supernode's own columns,
/// and update_rows[i - k] after them; front column j < k is panel column
/// j, and column j >= k is update column j - k.
///
/// Global rows map to front rows by one merge of a sorted row list against
/// the front's sorted rows. The supernode is read in place and must outlive
/// the front.
class FrontalMatrix {
 public:
  /// A shape-only front for timing-only dry runs: assembly counts entries
  /// and touches no storage.
  explicit FrontalMatrix(const SupernodeInfo& sn);
  /// A front in caller-provided storage, already zeroed; it must outlive
  /// this object. `scratch` receives a child's relative indices during
  /// extend_add, so it must hold as many entries as any child has update
  /// rows.
  FrontalMatrix(const SupernodeInfo& sn, MatrixView<double> panel,
                MatrixView<double> update, std::span<index_t> scratch);

  index_t k() const noexcept { return k_; }
  index_t m() const noexcept { return m_; }
  index_t order() const noexcept { return k_ + m_; }

  MatrixView<double> panel() const;
  MatrixView<double> l1() const { return panel().block(0, 0, k_, k_); }
  MatrixView<double> l2() const { return panel().block(k_, 0, m_, k_); }
  MatrixView<double> update() const;

  /// Scatter the supernode's columns of A (lower triangle) into the panel.
  /// Returns the number of entries moved (for assembly-cost charging).
  index_t assemble_from_matrix(const SparseSpd& a);

  /// Extend-add a child's packed-lower update matrix. `child_rows` are the
  /// child's update rows (global indices, sorted — a subset of this front's
  /// rows). Rows that are this supernode's columns land in the panel, the
  /// rest in the update block. Returns entries added.
  index_t extend_add(std::span<const index_t> child_rows,
                     std::span<const double> child_update_packed);

  /// Pack the update block (lower triangle) into `out` (packed-lower
  /// layout). Returns entries moved.
  index_t pack_update(std::span<double> out) const;

 private:
  const SupernodeInfo* sn_;
  index_t k_ = 0;
  index_t m_ = 0;
  bool numeric_ = false;
  MatrixView<double> panel_;
  MatrixView<double> update_;
  std::span<index_t> scratch_;
};

}  // namespace mfgpu
