// Retrospective analytics over factorization traces — the operations the
// paper's Section IV performs on its measured data (binning by op count,
// load distribution over the (m, k) plane, per-policy aggregation). Used
// by the figure benches and available to library users profiling their own
// matrices.
#pragma once

#include <array>
#include <map>

#include "multifrontal/trace.hpp"
#include "support/binning.hpp"

namespace mfgpu {

/// Aggregated component times for one op-count decade.
struct TraceBin {
  index_t calls = 0;
  double potrf = 0.0;
  double trsm = 0.0;
  double syrk = 0.0;
  double copy = 0.0;
  double total = 0.0;

  double kernels() const { return potrf + trsm + syrk; }
};

/// Key = floor(log10(total ops)) per call; calls with zero ops are skipped.
std::map<int, TraceBin> bin_by_ops_decade(const FactorizationTrace& trace);

/// Per-policy call counts and time (index 0 unused; 1..4 = P1..P4,
/// 5 = Batched).
struct PolicyBreakdown {
  std::array<index_t, 6> calls{};
  std::array<double, 6> time{};

  index_t total_calls() const;
  double total_time() const;
};

PolicyBreakdown policy_breakdown(const FactorizationTrace& trace);

/// Fraction of calls with k <= max_k and m <= max_m (paper IV-A: ~97% for
/// k <= 500, m <= 1000).
double small_call_fraction(const FactorizationTrace& trace, index_t max_m,
                           index_t max_k);

/// Fig. 2-style normalized time distribution over the (m, k) plane.
/// `subtract_copy` reproduces the paper's "excluding copy" variant.
Grid2D time_distribution_grid(const FactorizationTrace& trace, index_t extent,
                              index_t bin, bool subtract_copy);

}  // namespace mfgpu
