// Supernodal factor storage and the serial entry to the multifrontal
// Cholesky driver: factorize() walks the supernodal assembly tree in
// postorder (or height-major when batching) on the caller's executor and
// context, running the shared front step (multifrontal/front_step.hpp:
// frontal assembly, factor-update execution via a pluggable policy
// executor, publication of the panel and the update matrix) on each
// supernode. It is the one-worker case of the planned driver
// (multifrontal/parallel.hpp), which defines it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "multifrontal/factor_update.hpp"
#include "multifrontal/trace.hpp"
#include "sched/thread_pool.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu {

namespace obs {
class ScheduleRecorder;
}

/// The numeric factor L in supernodal storage: panel s holds the (k+m) x k
/// factor columns of supernode s (L1 in the top k rows — lower triangle
/// valid — and L2 below); row i of the panel corresponds to global permuted
/// index (cols ++ update_rows)[i] from the symbolic structure.
///
/// All panels live in one contiguous store laid out by the symbolic factor
/// (panel s right after panel s - 1, leading dimension k + m); `panels` are
/// views into it. The drivers assemble every front's factor columns in its
/// panel, so nothing is copied out, and a refactor of the same analysis
/// overwrites the store in place. Copies are deep.
///
/// Panels are stored in double. The paper's single-precision arithmetic
/// lives on the device (policies P2–P4), and double-precision iterative
/// refinement recovers the digits it loses.
struct Factorization {
  std::vector<MatrixView<double>> panels;
  bool numeric = true;

  Factorization() = default;
  Factorization(const Factorization& other);
  Factorization& operator=(const Factorization& other);
  Factorization(Factorization&&) noexcept = default;
  Factorization& operator=(Factorization&&) noexcept = default;

  /// Lay the store out for `supernodes`, keeping it (and its contents) when
  /// the layout already matches. New storage is left uninitialized: the
  /// drivers zero each panel as they assemble its front.
  void lay_out(std::span<const SupernodeInfo> supernodes);

  /// Bytes used by the stored factor.
  std::int64_t storage_bytes() const noexcept;

 private:
  std::unique_ptr<double[]> store_;
  std::size_t store_entries_ = 0;
};

/// Where two factors first differ. row == -1 means the panel counts (panel
/// is then the shorter count) or panel `panel`'s shapes differ; otherwise
/// (row, col) is the first differing entry of that panel, holding a / b.
struct FactorDifference {
  std::size_t panel = 0;
  index_t row = -1;
  index_t col = -1;
  double a = 0.0;
  double b = 0.0;
};

/// The first entry, in panel then column-major order, where `a` and `b`
/// differ — over the lower triangle of each pivot block and every row below
/// it, the entries a factor defines. std::nullopt when they are bitwise
/// identical there: the check behind every "factor equals the serial
/// factor bit for bit" contract.
std::optional<FactorDifference> first_factor_difference(
    const Factorization& a, const Factorization& b);

/// High-water memory marks of one worker's numeric phase: its arena plus —
/// for GPU-bearing workers — its private simulated device's pool slabs and
/// pinned staging. The profiler aggregates these into the report's memory
/// section and the mem.* gauges.
///
/// What the arena holds depends on the lane count. A one-lane run (a
/// one-worker walk, factorize() included, or a one-node cluster) reports
/// its update matrices: the LIFO StackArena in postorder (the paper's
/// real-stack bound), or the live per-supernode update buffers otherwise
/// (height-major batched walk, one-node cluster). With more lanes every
/// worker or node reports its StackArena holding the working fronts'
/// update blocks (the panels live in the factor's store).
struct WorkerMemory {
  int worker = 0;
  std::int64_t arena_peak_bytes = 0;        ///< arena high water (above)
  std::int64_t device_pool_peak_bytes = 0;  ///< device slab high water
  std::int64_t pinned_pool_peak_bytes = 0;  ///< pinned staging high water
  std::int64_t device_pool_charged_allocs = 0;  ///< acquires that paid
  std::int64_t pinned_pool_charged_allocs = 0;
};

struct FactorizeResult {
  Factorization factor;
  FactorizationTrace trace;
  /// Per-worker memory high-water marks (one entry per worker).
  std::vector<WorkerMemory> memory;
  /// Work-stealing pool statistics of the run (empty for one worker, which
  /// runs on the calling thread) and the real seconds the pool spent
  /// executing the tree — the profiler's per-worker utilization source.
  PoolRunStats pool_stats;
  double pool_wall_seconds = 0.0;
  /// Fault tolerance: device faults detected and survived by the run's
  /// executors (see policy/executors.hpp).
  std::int64_t faults_survived = 0;
};

struct FactorizeOptions {
  /// Keep the numeric factor (disable for timing-only studies to save RAM).
  bool store_factor = true;
  /// Aggregated small-front execution (multifrontal/batched.hpp). Off keeps
  /// the postorder per-front walk; on walks the tree height-major and runs
  /// each planned group through the executor's execute_batch. Per-front
  /// numeric math and the extend-add order are identical either way, so the
  /// factor matches bitwise.
  bool batching = false;
  /// Optional schedule flight recorder (obs/schedule_record.hpp). When set,
  /// the driver attaches it to every worker's host clock (one lane per
  /// worker or cluster node) and records every task, dependency join, and
  /// primitive timing operation of the run. The one recorder knob of all
  /// drivers: factorize_parallel and factorize_cluster read it from their
  /// `numeric` options.
  obs::ScheduleRecorder* recorder = nullptr;
};

/// Factor the permuted matrix using the symbolic structure in `analysis`.
/// `executor` decides and executes the policy for each factor-update call;
/// `ctx` carries the virtual clocks (and the device, for GPU policies).
/// `recycled` is an earlier factor of the analysis whose store is
/// overwritten in place (a refactor holds one factor, not two). The
/// one-worker walk of the planned driver on the calling thread: bitwise the
/// result of factorize_parallel with one worker running this executor.
FactorizeResult factorize(const Analysis& analysis, FuExecutor& executor,
                          FactorContext& ctx,
                          const FactorizeOptions& options = {},
                          Factorization recycled = {});

}  // namespace mfgpu
