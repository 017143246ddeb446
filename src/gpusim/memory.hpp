// Simulated device memory and the high-water-mark allocation pools.
//
// The paper (Section V-A2) observes that per-call pinned/device allocation
// is prohibitively expensive for the many small supernodes of a sparse
// factorization, and instead reallocates "only when the maximum allocated
// size over all the previous calls is insufficient". MemoryPool implements
// exactly that policy per named slot, with a switch to disable it for the
// ablation benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "dense/matrix.hpp"
#include "gpusim/clock.hpp"
#include "support/error.hpp"

namespace mfgpu {

/// A matrix resident in simulated device memory: a view into its pool
/// slot's storage (Device::allocate). Contents are real (the simulated
/// kernels execute on the host in float — the precision the paper uses on
/// the T10); `available_at` is the virtual time at which the last producing
/// operation completes, which is how cross-stream data dependencies
/// serialize.
struct DeviceMatrix {
  MatrixView<float> data;  ///< empty in dry-run mode (shape_* still set)
  index_t shape_rows = 0;
  index_t shape_cols = 0;
  double available_at = 0.0;

  index_t rows() const noexcept { return shape_rows; }
  index_t cols() const noexcept { return shape_cols; }
};

struct PoolStats {
  std::int64_t acquire_calls = 0;
  std::int64_t charged_allocations = 0;  ///< acquires that paid the alloc cost
  std::int64_t peak_bytes = 0;
  std::int64_t current_high_water_bytes = 0;
};

/// High-water-mark allocator for one memory kind (device or pinned host).
/// acquire() returns the seconds to charge for the allocation.
class MemoryPool {
 public:
  /// `reuse` false = pay the allocation cost on every acquire (ablation).
  MemoryPool(std::string name, double alloc_latency, double alloc_per_byte,
             std::int64_t capacity_bytes, bool reuse = true);

  /// Seconds of allocation cost for a buffer of `bytes` in `slot`.
  /// Throws DeviceOutOfMemoryError when the total high water exceeds
  /// capacity.
  double acquire(const std::string& slot, std::int64_t bytes);

  const PoolStats& stats() const noexcept { return stats_; }
  void reset();

 private:
  std::string name_;
  double alloc_latency_;
  double alloc_per_byte_;
  std::int64_t capacity_bytes_;
  bool reuse_;
  std::unordered_map<std::string, std::int64_t> high_water_;
  PoolStats stats_;
};

}  // namespace mfgpu
