#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <vector>

#include "obs/trace_session.hpp"

namespace mfgpu {
namespace {

/// Subsets at or below this size are ordered locally without dissection.
constexpr index_t kLeafSize = 48;

}  // namespace

Permutation nested_dissection(std::span<const std::array<index_t, 3>> coords) {
  const index_t n = static_cast<index_t>(coords.size());
  obs::ScopedSpan span("ordering", "nested_dissection");
  span.set_arg(0, "n", n);

  std::vector<index_t> work(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) work[static_cast<std::size_t>(i)] = i;

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));

  // Explicit recursion: process(range) emits left, right, then separator.
  // We implement it with a call stack of (range, phase) to avoid deep
  // recursion on large grids.
  struct Frame {
    index_t begin, end;
    index_t mid_lo = -1, mid_hi = -1;  // separator slice [mid_lo, mid_hi)
    int phase = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({0, n, -1, -1, 0});

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.phase == 0) {
      const index_t size = frame.end - frame.begin;
      if (size <= kLeafSize) {
        // Leaf: keep the (node-grouped) natural order.
        for (index_t t = frame.begin; t < frame.end; ++t) {
          order.push_back(work[static_cast<std::size_t>(t)]);
        }
        stack.pop_back();
        continue;
      }
      // Pick the axis with the largest coordinate spread.
      std::array<index_t, 3> lo = {coords[static_cast<std::size_t>(
                                       work[static_cast<std::size_t>(frame.begin)])][0],
                                   0, 0};
      std::array<index_t, 3> hi = lo;
      for (int a = 0; a < 3; ++a) {
        lo[static_cast<std::size_t>(a)] =
            coords[static_cast<std::size_t>(work[static_cast<std::size_t>(frame.begin)])]
                  [static_cast<std::size_t>(a)];
        hi[static_cast<std::size_t>(a)] = lo[static_cast<std::size_t>(a)];
      }
      for (index_t t = frame.begin; t < frame.end; ++t) {
        const auto& c = coords[static_cast<std::size_t>(work[static_cast<std::size_t>(t)])];
        for (int a = 0; a < 3; ++a) {
          lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)], c[static_cast<std::size_t>(a)]);
          hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)], c[static_cast<std::size_t>(a)]);
        }
      }
      int axis = 0;
      index_t spread = hi[0] - lo[0];
      for (int a = 1; a < 3; ++a) {
        if (hi[static_cast<std::size_t>(a)] - lo[static_cast<std::size_t>(a)] > spread) {
          spread = hi[static_cast<std::size_t>(a)] - lo[static_cast<std::size_t>(a)];
          axis = a;
        }
      }
      if (spread == 0) {
        // Degenerate (all unknowns share one point): emit as a leaf.
        for (index_t t = frame.begin; t < frame.end; ++t) {
          order.push_back(work[static_cast<std::size_t>(t)]);
        }
        stack.pop_back();
        continue;
      }
      const index_t cut = lo[static_cast<std::size_t>(axis)] + spread / 2;

      // Partition into [begin, mid_lo): coord < cut, [mid_lo, sep_begin):
      // coord > cut, and [sep_begin, end): coord == cut (the separator
      // plane, ordered after both halves). Stable so node dof groups stay
      // adjacent.
      auto klass = [&](index_t v) {
        const index_t c =
            coords[static_cast<std::size_t>(v)][static_cast<std::size_t>(axis)];
        return (c < cut) ? 0 : (c == cut ? 2 : 1);
      };
      std::stable_sort(work.begin() + frame.begin, work.begin() + frame.end,
                       [&](index_t a, index_t b) { return klass(a) < klass(b); });
      index_t mid_lo = frame.begin;
      while (mid_lo < frame.end &&
             klass(work[static_cast<std::size_t>(mid_lo)]) == 0) {
        ++mid_lo;
      }
      index_t sep_begin = mid_lo;
      while (sep_begin < frame.end &&
             klass(work[static_cast<std::size_t>(sep_begin)]) == 1) {
        ++sep_begin;
      }
      frame.mid_lo = mid_lo;
      frame.mid_hi = sep_begin;
      frame.phase = 1;
      // Recurse into the two halves; separator emitted in phase 1.
      const Frame left{frame.begin, mid_lo, -1, -1, 0};
      const Frame right{mid_lo, sep_begin, -1, -1, 0};
      stack.push_back(right);
      stack.push_back(left);
      continue;
    }
    // phase 1: halves done; emit the separator slice [mid_hi, end) and pop.
    for (index_t t = frame.mid_hi; t < frame.end; ++t) {
      order.push_back(work[static_cast<std::size_t>(t)]);
    }
    stack.pop_back();
  }

  MFGPU_CHECK(static_cast<index_t>(order.size()) == n,
              "nested_dissection: lost unknowns");
  return Permutation::from_elimination_order(std::move(order));
}

}  // namespace mfgpu
