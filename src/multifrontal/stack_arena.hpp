// LIFO arena of double blocks. Two uses:
//
// - The update-matrix stack of the serial postorder driver. With a
//   postordered elimination tree, update matrices are produced and
//   consumed in strict stack order: a supernode pushes its update after
//   popping those of its children. Packing them into one arena (the
//   classic multifrontal "update stack") bounds working memory by the
//   symbolic peak_update_stack_entries() instead of the sum over all
//   supernodes.
//   A multi-worker walk gives each worker such a stack for the updates
//   that stay inside one subtree task.
// - The per-worker front arena of factorize_parallel and
//   factorize_cluster: each task pushes its working front and pops it when
//   the task ends.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

class StackArena {
 public:
  /// Capacity is reserved, not touched: pages are faulted in by the first
  /// push that reaches them, so an arena sized for the worst case costs
  /// memory only up to its actual high water.
  explicit StackArena(index_t capacity_entries);

  /// Push a block of `entries` doubles (zero-initialized); returns its view.
  std::span<double> push(index_t entries);
  /// The same block left uninitialized, for a caller that writes all of it.
  std::span<double> push_for_overwrite(index_t entries);
  /// View of the i-th block from the top (0 = topmost).
  std::span<double> from_top(index_t i);
  /// Pop the topmost block.
  void pop();

  index_t num_blocks() const noexcept {
    return static_cast<index_t>(offsets_.size());
  }
  index_t used_entries() const noexcept { return top_; }
  index_t peak_entries() const noexcept { return peak_; }

 private:
  std::unique_ptr<double[]> buffer_;
  index_t capacity_ = 0;
  std::vector<index_t> offsets_;  ///< start offset of each live block
  index_t top_ = 0;
  index_t peak_ = 0;
};

/// Packed lower-triangle addressing for an n x n update matrix stored
/// column-major without the upper triangle: entry (i, j), i >= j, lives at
/// packed_index(n, i, j).
inline index_t packed_lower_size(index_t n) { return n * (n + 1) / 2; }
inline index_t packed_index(index_t n, index_t i, index_t j) {
  return j * n - j * (j - 1) / 2 + (i - j);
}

}  // namespace mfgpu
