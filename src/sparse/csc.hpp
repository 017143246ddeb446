// Compressed sparse column storage of the lower triangle of a symmetric
// positive definite matrix, plus the adjacency-graph view used by ordering
// and symbolic analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

/// Lower-triangular CSC storage of a symmetric matrix. Row indices within
/// each column are sorted ascending and the first entry of every column is
/// the diagonal.
class SparseSpd {
 public:
  SparseSpd() = default;
  SparseSpd(index_t n, std::vector<index_t> col_ptr,
            std::vector<index_t> row_idx, std::vector<double> values);

  index_t n() const noexcept { return n_; }
  /// Stored entries (lower triangle incl. diagonal).
  index_t nnz_lower() const noexcept {
    return static_cast<index_t>(row_idx_.size());
  }
  /// Entries of the full symmetric matrix (paper's NNZ convention).
  index_t nnz_full() const noexcept { return 2 * nnz_lower() - n_; }

  std::span<const index_t> col_ptr() const noexcept { return col_ptr_; }
  std::span<const index_t> row_idx() const noexcept { return row_idx_; }
  std::span<const double> values() const noexcept { return values_; }

  /// Rows of column j (sorted; first entry is j itself).
  std::span<const index_t> column_rows(index_t j) const;
  std::span<const double> column_values(index_t j) const;

  /// y := A * x using the symmetric (lower) storage, double precision.
  /// This is the sparse matvec used by residuals and iterative refinement.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Symmetric permutation B = P A P^T where new index = perm_inverse[old]
  /// is given as `new_of_old` (i.e. B(new_of_old[i], new_of_old[j]) = A(i,j)).
  /// When `value_source` is given it receives B's value map: B.values()[t]
  /// == values()[(*value_source)[t]], a function of the pattern and the
  /// permutation alone.
  SparseSpd permuted(std::span<const index_t> new_of_old,
                     std::vector<index_t>* value_source = nullptr) const;

  /// Overwrite the values in place with from[value_source[t]]: the values
  /// of a same-pattern matrix permuted through a map permuted() reported,
  /// without redoing its per-column sort.
  void gather_values(std::span<const double> from,
                     std::span<const index_t> value_source);
  /// Overwrite the values in place with those of a same-pattern matrix.
  void assign_values(std::span<const double> values);

  /// FNV-1a hash of the sparsity pattern (n, col_ptr, row_idx) — values are
  /// NOT included, so all matrices sharing one pattern share one
  /// fingerprint. This is the key of the serving layer's analysis cache.
  /// O(nnz) per call;
  /// callers on hot paths should hash once and keep the result.
  std::uint64_t pattern_fingerprint() const noexcept;
  /// FNV-1a hash of the numeric values only (pattern excluded). Two
  /// matrices with equal pattern AND values fingerprints are byte-identical,
  /// letting the serving layer reuse an existing factorization outright.
  std::uint64_t values_fingerprint() const noexcept;

 private:
  index_t n_ = 0;
  std::vector<index_t> col_ptr_;
  std::vector<index_t> row_idx_;
  std::vector<double> values_;
};

/// Undirected adjacency structure of a symmetric matrix (both triangles,
/// diagonal excluded). Used by ordering heuristics and the elimination tree.
struct SymmetricGraph {
  index_t n = 0;
  std::vector<index_t> ptr;  ///< size n+1
  std::vector<index_t> adj;  ///< neighbours, sorted within each vertex

  std::span<const index_t> neighbors(index_t v) const {
    return {adj.data() + ptr[static_cast<std::size_t>(v)],
            adj.data() + ptr[static_cast<std::size_t>(v) + 1]};
  }
};

/// Build the full adjacency graph from lower-triangular storage.
SymmetricGraph build_graph(const SparseSpd& a);

}  // namespace mfgpu
