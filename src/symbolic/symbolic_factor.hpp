// Symbolic factorization driver: ordering composition, elimination tree,
// postorder, supernode formation (fundamental + relaxed), and per-supernode
// row structure. The result fully determines the multifrontal numeric phase
// and the (m, k) of every factor-update call — the quantities the paper's
// analysis and auto-tuner operate on.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ordering/permutation.hpp"
#include "sparse/csc.hpp"
#include "symbolic/supernodes.hpp"

namespace mfgpu {

/// One supernode of the assembly tree.
struct SupernodeInfo {
  index_t first_col = 0;  ///< column range [first_col, last_col)
  index_t last_col = 0;
  index_t parent = -1;  ///< parent supernode, -1 for roots
  /// Row indices strictly below the supernode's columns (sorted ascending,
  /// global permuted indices). m = update_rows.size(), k = width: these are
  /// exactly the paper's F-U dimensions.
  std::vector<index_t> update_rows;

  index_t width() const noexcept { return last_col - first_col; }   ///< k
  index_t num_update_rows() const noexcept {                        ///< m
    return static_cast<index_t>(update_rows.size());
  }
  index_t front_order() const noexcept {                            ///< s = k+m
    return width() + num_update_rows();
  }
};

struct AnalyzeOptions {
  RelaxOptions relax;
};

struct Analysis;

/// Full symbolic analysis of an already-permuted matrix whose etree is
/// postordered (use `analyze` below for the end-to-end path).
class SymbolicFactor {
 public:
  SymbolicFactor(const SparseSpd& a_permuted, const AnalyzeOptions& options);

  index_t n() const noexcept { return n_; }
  std::span<const index_t> column_parent() const noexcept { return col_parent_; }
  std::span<const SupernodeInfo> supernodes() const noexcept { return snodes_; }
  index_t num_supernodes() const noexcept {
    return static_cast<index_t>(snodes_.size());
  }
  index_t snode_of_col(index_t j) const {
    return snode_of_col_[static_cast<std::size_t>(j)];
  }

  /// Entries of L (supernodal storage, explicit zeros from relaxation
  /// included).
  index_t factor_nnz() const noexcept { return factor_nnz_; }
  /// Total F-U flops over all supernodes: sum of k^3/3 + m k^2 + m^2 k.
  double factor_flops() const noexcept { return factor_flops_; }
  /// Peak number of update-matrix doubles simultaneously live on the
  /// postorder stack (sizing for StackArena).
  index_t peak_update_stack_entries() const noexcept { return peak_stack_; }

 private:
  friend Analysis analyze(const SparseSpd& a, const Permutation& fill_perm,
                          const AnalyzeOptions& options);
  /// The same analysis with the matrix's elimination tree already known
  /// (`analyze` relabels the fill order's tree through its postorder).
  SymbolicFactor(const SparseSpd& a_permuted,
                 std::vector<index_t> postordered_parent,
                 const AnalyzeOptions& options);
  void build(const SparseSpd& a, const AnalyzeOptions& options);
  /// Row structures of the fundamental supernodes, checked against the
  /// column counts.
  void compute_structures(const SparseSpd& a, const SupernodePartition& part,
                          std::span<const index_t> counts);
  void amalgamate(const RelaxOptions& relax);
  void finalize_metrics();

  index_t n_ = 0;
  std::vector<index_t> col_parent_;
  std::vector<SupernodeInfo> snodes_;
  std::vector<index_t> snode_of_col_;
  index_t factor_nnz_ = 0;
  double factor_flops_ = 0.0;
  index_t peak_stack_ = 0;
};

/// End-to-end analysis result: the composed permutation (fill ordering +
/// etree postorder), the permuted matrix, its symbolic factorization, and
/// the permuted matrix's value map (SparseSpd::permuted): new values of the
/// same pattern are permuted with permuted.gather_values(a.values(),
/// *value_source). The map is immutable and shared: every Solver adopting
/// one cached analysis of the pattern holds the same copy.
struct Analysis {
  Permutation perm;
  SparseSpd permuted;
  SymbolicFactor symbolic;
  std::shared_ptr<const std::vector<index_t>> value_source;
};

/// Orders with `fill_perm` (e.g. minimum_degree / nested_dissection), then
/// composes the etree postorder so the multifrontal stack discipline holds.
/// An empty matrix (n = 0) is an InvalidArgumentError.
Analysis analyze(const SparseSpd& a, const Permutation& fill_perm,
                 const AnalyzeOptions& options = {});

}  // namespace mfgpu
