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

#include <string>
#include <vector>

#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

enum class BatchingMode {
  Off = 0,  ///< per-front dispatch only (the pre-batching behavior)
  On = 1,   ///< batch every qualifying level group
  Auto = 2  ///< batch only groups whose mean front is launch-latency-bound
};

/// Knobs for the batched execution path (SolverOptions::batching, the
/// `--batch=` CLI flag, and the MFGPU_BATCH env var all funnel here).
struct BatchingOptions {
  BatchingMode mode = BatchingMode::Off;
  /// A front qualifies only when k <= max_k and 0 < m <= max_m — larger
  /// fronts saturate the device on their own and keep per-front dispatch.
  index_t max_k = 128;
  index_t max_m = 512;
  /// Level groups smaller than min_batch dissolve back to per-front calls
  /// (the aggregation overhead isn't worth it); each aggregated dispatch
  /// holds at most max_batch fronts.
  int min_batch = 4;
  int max_batch = 32;
  /// Auto mode batches a group only when its mean front is below this many
  /// F-U flops — i.e. small enough that launch latency, not arithmetic,
  /// dominates (default: the paper's P1/P2 crossover, Table VI).
  double auto_ops_threshold = 2.0e6;

  bool enabled() const noexcept { return mode != BatchingMode::Off; }
};

const char* batching_mode_name(BatchingMode mode) noexcept;

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

/// Build the batch plan from the symbolic structure alone. With mode Off
/// the plan has no batches (every front stays per-front).
BatchPlan group_batches(const SymbolicFactor& sym,
                        const BatchingOptions& options);

/// Parse a batching spec: "off" | "on" | "auto", optionally followed by
/// ",key=value" overrides with keys max_k, max_m, min (min_batch),
/// max (max_batch), ops (auto_ops_threshold). Examples:
///   "on"  "auto,max_k=96,max_m=256"  "on,min=2,max=64"
/// Throws InvalidArgumentError on malformed specs.
BatchingOptions parse_batching(const std::string& spec);

/// CLI > environment > default. `cli_spec` is the --batch= value ("" =
/// flag absent); `env_value` is getenv("MFGPU_BATCH") (nullptr/empty =
/// unset). Returns the parsed winner, or default (Off) when neither is set.
BatchingOptions resolve_batching(const std::string& cli_spec,
                                 const char* env_value);

}  // namespace mfgpu
