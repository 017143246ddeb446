#include "multifrontal/batched.hpp"

#include <algorithm>

#include "symbolic/tree_stats.hpp"

namespace mfgpu {

BatchPlan group_batches(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  SupernodeHeights heights = supernode_heights(sym);
  BatchPlan plan;
  plan.height = std::move(heights.height);
  plan.num_levels = heights.num_levels;
  plan.batch_of.assign(static_cast<std::size_t>(nsup), -1);

  // Candidates per level, in ascending supernode order (the deterministic
  // member order every driver must preserve).
  const auto snodes = sym.supernodes();
  std::vector<std::vector<index_t>> level_candidates(
      static_cast<std::size_t>(plan.num_levels));
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = snodes[static_cast<std::size_t>(s)];
    const index_t m = sn.num_update_rows();
    const index_t k = sn.width();
    if (k <= 0 || m <= 0 || k > kBatchMaxK || m > kBatchMaxM) continue;
    level_candidates[static_cast<std::size_t>(
                         plan.height[static_cast<std::size_t>(s)])]
        .push_back(s);
  }

  for (index_t level = 0; level < plan.num_levels; ++level) {
    const auto& candidates = level_candidates[static_cast<std::size_t>(level)];
    for (std::size_t i = 0; i < candidates.size();) {
      const std::size_t take = std::min(candidates.size() - i,
                                        static_cast<std::size_t>(kMaxBatch));
      // A trailing sliver can't amortize the aggregation overhead.
      if (take < static_cast<std::size_t>(kMinBatch)) break;
      FrontBatch batch;
      batch.level = level;
      batch.snodes.assign(candidates.begin() + static_cast<std::ptrdiff_t>(i),
                          candidates.begin() +
                              static_cast<std::ptrdiff_t>(i + take));
      const int id = static_cast<int>(plan.batches.size());
      for (index_t s : batch.snodes) {
        plan.batch_of[static_cast<std::size_t>(s)] = id;
      }
      plan.batches.push_back(std::move(batch));
      i += take;
    }
  }
  return plan;
}

}  // namespace mfgpu
