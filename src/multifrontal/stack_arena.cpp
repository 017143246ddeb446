#include "multifrontal/stack_arena.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace mfgpu {

StackArena::StackArena(index_t capacity_entries)
    : capacity_(capacity_entries) {
  MFGPU_CHECK(capacity_entries >= 0, "StackArena: negative capacity");
  buffer_ = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(capacity_entries));
}

std::span<double> StackArena::push(index_t entries) {
  const std::span<double> block = push_for_overwrite(entries);
  std::fill(block.begin(), block.end(), 0.0);
  return block;
}

std::span<double> StackArena::push_for_overwrite(index_t entries) {
  MFGPU_CHECK(entries >= 0, "StackArena: negative block size");
  MFGPU_CHECK(top_ + entries <= capacity_,
              "StackArena: overflow — symbolic peak estimate violated");
  offsets_.push_back(top_);
  std::span<double> block(buffer_.get() + top_,
                          static_cast<std::size_t>(entries));
  top_ += entries;
  peak_ = std::max(peak_, top_);
  if (obs::enabled()) {
    obs::MetricsRegistry::global().gauge_max(
        "multifrontal.stack_arena.live_peak_entries",
        static_cast<double>(peak_));
  }
  return block;
}

std::span<double> StackArena::from_top(index_t i) {
  MFGPU_CHECK(i >= 0 && i < num_blocks(), "StackArena: bad block index");
  const std::size_t idx = offsets_.size() - 1 - static_cast<std::size_t>(i);
  const index_t begin = offsets_[idx];
  const index_t end =
      (idx + 1 < offsets_.size()) ? offsets_[idx + 1] : top_;
  return {buffer_.get() + begin, static_cast<std::size_t>(end - begin)};
}

void StackArena::pop() {
  MFGPU_CHECK(!offsets_.empty(), "StackArena: pop on empty stack");
  top_ = offsets_.back();
  offsets_.pop_back();
}

}  // namespace mfgpu
