// Batch collection for the aggregated small-front execution path.
//
// The paper's call-size histogram (Fig. 2 / Table 3) shows the vast
// majority of factor-update calls are tiny: individually they cannot
// amortize a kernel launch or a PCIe transfer, which is why the per-front
// hybrid keeps them on the host. Batching flips that trade: fronts at the
// same elimination-tree height are never ancestor-related, so a whole
// level of small fronts can ship to the device as ONE aggregated
// potrf/trsm/syrk dispatch with one coalesced transfer each way.
//
// This header is symbolic-only: group_batches derives the plan purely from
// the SymbolicFactor, so the grouping — and therefore the numeric result —
// is identical no matter how many worker threads later execute it.
#pragma once

#include <vector>

#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

/// A front qualifies for a batch only when k <= kBatchMaxK and
/// 0 < m <= kBatchMaxM: larger fronts saturate the device on their own and
/// keep per-front dispatch.
inline constexpr index_t kBatchMaxK = 128;
inline constexpr index_t kBatchMaxM = 512;
/// Each aggregated dispatch holds kMinBatch..kMaxBatch fronts; a trailing
/// level remainder below kMinBatch stays per-front.
inline constexpr int kMinBatch = 2;
inline constexpr int kMaxBatch = 64;

/// One aggregated dispatch: fronts at the same etree height (ascending
/// supernode order — the deterministic member order).
struct FrontBatch {
  index_t level = 0;
  std::vector<index_t> snodes;
};

/// The symbolic batch plan for one factorization.
struct BatchPlan {
  /// Per supernode: etree height (leaves 0, parent = 1 + max over children).
  std::vector<index_t> height;
  /// Per supernode: index into `batches`, or -1 for the per-front path.
  std::vector<int> batch_of;
  std::vector<FrontBatch> batches;

  bool any() const noexcept { return !batches.empty(); }
  index_t num_levels = 0;
};

/// Build the batch plan from the symbolic structure alone: every level's
/// qualifying fronts, in ascending supernode order, cut into batches of at
/// most kMaxBatch.
BatchPlan group_batches(const SymbolicFactor& sym);

}  // namespace mfgpu
