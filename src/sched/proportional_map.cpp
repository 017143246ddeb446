#include "sched/proportional_map.hpp"

#include <algorithm>
#include <cmath>

namespace mfgpu {

std::vector<double> subtree_work(const TaskGraph& graph) {
  std::vector<double> work(static_cast<std::size_t>(graph.num_tasks), 0.0);
  // Tasks are postordered: children precede parents.
  for (index_t t = 0; t < graph.num_tasks; ++t) {
    work[static_cast<std::size_t>(t)] += graph.work(t);
    const index_t p = graph.parent[static_cast<std::size_t>(t)];
    if (p != -1) {
      work[static_cast<std::size_t>(p)] += work[static_cast<std::size_t>(t)];
    }
  }
  return work;
}

std::vector<int> proportional_mapping(const TaskGraph& graph,
                                      int num_workers) {
  MFGPU_CHECK(num_workers > 0, "proportional_mapping: need workers");
  const std::vector<double> work = subtree_work(graph);

  // Worker ranges [lo, hi) per task; roots own everything.
  std::vector<int> lo(static_cast<std::size_t>(graph.num_tasks), 0);
  std::vector<int> hi(static_cast<std::size_t>(graph.num_tasks), num_workers);

  // Root-to-leaf sweep (reverse postorder): split each task's range among
  // its children proportionally to subtree work, keeping slices contiguous.
  for (index_t t = graph.num_tasks - 1; t >= 0; --t) {
    const auto& kids = graph.children[static_cast<std::size_t>(t)];
    if (kids.empty()) continue;
    const int range_lo = lo[static_cast<std::size_t>(t)];
    const int range_hi = hi[static_cast<std::size_t>(t)];
    const int width = range_hi - range_lo;
    if (width <= 1) {
      // Whole subtree pinned to one worker.
      for (index_t c : kids) {
        lo[static_cast<std::size_t>(c)] = range_lo;
        hi[static_cast<std::size_t>(c)] = range_lo + 1;
      }
      continue;
    }
    double total = 0.0;
    for (index_t c : kids) total += work[static_cast<std::size_t>(c)];
    double cursor = static_cast<double>(range_lo);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      const index_t c = kids[i];
      const double share =
          (total > 0.0)
              ? work[static_cast<std::size_t>(c)] / total * width
              : static_cast<double>(width) / static_cast<double>(kids.size());
      const int child_lo = std::clamp(
          static_cast<int>(std::floor(cursor)), range_lo, range_hi - 1);
      cursor += share;
      int child_hi = std::clamp(static_cast<int>(std::floor(cursor)),
                                child_lo + 1, range_hi);
      if (i + 1 == kids.size()) child_hi = range_hi;  // absorb rounding
      lo[static_cast<std::size_t>(c)] = child_lo;
      hi[static_cast<std::size_t>(c)] = child_hi;
    }
  }

  std::vector<int> preferred(static_cast<std::size_t>(graph.num_tasks));
  for (index_t t = 0; t < graph.num_tasks; ++t) {
    preferred[static_cast<std::size_t>(t)] = lo[static_cast<std::size_t>(t)];
  }
  return preferred;
}

}  // namespace mfgpu
