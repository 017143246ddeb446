// Deterministic fault injection for the simulated GPU.
//
// The paper's hybrid scheduler assumes the device always answers; real
// deployments see transient kernel launch failures, corrupted transfers,
// allocator hiccups, and outright device loss. FaultInjector lets every
// Device produce those failure modes at configurable per-operation
// probabilities so the dispatch/scheduling/serving layers above can be
// exercised (and chaos-tested) without real hardware.
//
// Determinism contract: the fault schedule is a pure function of
// (seed, scope, op-index-within-scope, site). Executors open a scope per
// frontal matrix (keyed on the front's first global column), so whether a
// given front faults does NOT depend on which worker the work-stealing pool
// happened to run it on — factorize_parallel stays reproducible for a fixed
// seed. History-dependent operations that are not per-front (pool warm-up in
// PolicyExecutor::ensure_prepared) run under a FaultSuppressionGuard so they
// cannot shift the per-front op indices.
#pragma once

#include <cstdint>

#include "support/error.hpp"

namespace mfgpu {

/// Where in the device an operation executes; each site can produce a
/// different subset of fault kinds.
enum class FaultSite {
  Kernel,    ///< gpublas kernel launches (potrf/trsm/syrk/gemm)
  Transfer,  ///< PCIe copies (TransferModel call sites)
  Alloc      ///< device/pinned pool acquires
};

enum class FaultKind {
  None = 0,
  TransientKernel,     ///< kernel launch fails; retry may succeed
  TransferCorruption,  ///< copy completes but poisons data (non-finite)
  SpuriousOom,         ///< allocator reports OOM despite available memory
  DeviceDeath          ///< sticky: every later operation faults too
};

const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultInjectorOptions {
  std::uint64_t seed = 0;
  /// Per-operation probabilities, each in [0, 1).
  double transient_kernel_rate = 0.0;   ///< Kernel site
  double transfer_corruption_rate = 0.0;  ///< Transfer site
  double spurious_oom_rate = 0.0;       ///< Alloc site
  double device_death_rate = 0.0;       ///< any site; sticky once drawn

  bool any() const noexcept {
    return transient_kernel_rate > 0.0 || transfer_corruption_rate > 0.0 ||
           spurious_oom_rate > 0.0 || device_death_rate > 0.0;
  }

  friend bool operator==(const FaultInjectorOptions&,
                         const FaultInjectorOptions&) = default;
};

struct FaultInjectorStats {
  std::int64_t sampled_ops = 0;
  std::int64_t transient_kernel = 0;
  std::int64_t transfer_corruption = 0;
  std::int64_t spurious_oom = 0;
  std::int64_t device_death = 0;

  std::int64_t total_faults() const noexcept {
    return transient_kernel + transfer_corruption + spurious_oom +
           device_death;
  }
};

/// Seeded per-device fault source. Not thread-safe — like the Device that
/// owns it, an injector is driven by one worker thread at a time.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultInjectorOptions options);

  bool enabled() const noexcept { return enabled_; }
  const FaultInjectorOptions& options() const noexcept { return options_; }

  /// Start a new deterministic sampling scope (e.g. one frontal matrix,
  /// keyed on its first global column). Resets the op index so the fault
  /// schedule inside the scope is independent of everything sampled before.
  void begin_scope(std::uint64_t scope) noexcept {
    scope_ = scope;
    op_index_ = 0;
  }

  /// Resume a scope at a given op index. Batched dispatches interleave the
  /// member fronts' operations (upload all, potrf all, ...), so each member
  /// carries its own op counter across stages: its fault schedule stays a
  /// pure function of (seed, front, op) — independent of the batch it
  /// landed in. Pair with op_index() to read the counter back after
  /// sampling.
  void resume_scope(std::uint64_t scope, std::uint64_t op_index) noexcept {
    scope_ = scope;
    op_index_ = op_index;
  }

  /// Next op index within the current scope.
  std::uint64_t op_index() const noexcept { return op_index_; }

  /// Draw the fault outcome for the next operation at `site`. Advances the
  /// op index and accumulates stats. Returns DeviceDeath for every call once
  /// the device died. Suppressed or disabled injectors always return None
  /// (without consuming an op index when disabled).
  FaultKind sample(FaultSite site);

  bool dead() const noexcept { return dead_; }
  void mark_dead() noexcept { dead_ = true; }

  const FaultInjectorStats& stats() const noexcept { return stats_; }

  /// Clears death, stats, and scope state (options and seed survive).
  void reset() noexcept;

  /// The deterministic draw sample() uses, exposed as a pure function so a
  /// front's fault schedule can be predicted without running it (tests
  /// pick seeds with it): uniform in [0, 1) from (seed, scope, op).
  static double uniform(std::uint64_t seed, std::uint64_t scope,
                        std::uint64_t op) noexcept;

 private:
  friend class FaultSuppressionGuard;

  double draw() noexcept;  ///< uniform in [0, 1) from (seed, scope, op)

  FaultInjectorOptions options_;
  bool enabled_ = false;
  bool dead_ = false;
  int suppress_depth_ = 0;
  std::uint64_t scope_ = 0;
  std::uint64_t op_index_ = 0;
  FaultInjectorStats stats_;
};

/// RAII pause for history-dependent code paths (pool warm-up) whose
/// operations must not consume per-scope draws. Null injector = no-op.
class FaultSuppressionGuard {
 public:
  explicit FaultSuppressionGuard(FaultInjector* injector) noexcept
      : injector_(injector) {
    if (injector_ != nullptr) ++injector_->suppress_depth_;
  }
  ~FaultSuppressionGuard() {
    if (injector_ != nullptr) --injector_->suppress_depth_;
  }
  FaultSuppressionGuard(const FaultSuppressionGuard&) = delete;
  FaultSuppressionGuard& operator=(const FaultSuppressionGuard&) = delete;

 private:
  FaultInjector* injector_;
};

}  // namespace mfgpu
