// Factor-update executors for the four policies and the per-call
// dispatchers built on top of them.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "multifrontal/factor_update.hpp"
#include "policy/policy.hpp"

namespace mfgpu {

struct ExecutorOptions {
  /// Async pinned-memory copies overlapped with computation (paper §V-A2).
  /// false = pageable synchronous copies — the Section IV "basic GPU
  /// implementation" and the ablation baseline.
  bool overlapped_copies = true;
  /// The multi-GPU-era P4 copy optimizations (paper §VI-C, Table VII last
  /// columns): the host waits only for the update-matrix transfer; the
  /// factored panel streams back while the host moves on.
  bool copy_optimized_p4 = false;
};

/// Executes a fixed policy for every call.
class PolicyExecutor : public FuExecutor {
 public:
  explicit PolicyExecutor(Policy policy, ExecutorOptions options = {});

  FuOutcome execute(FrontBlocks front, FactorContext& ctx) override;
  void prepare(index_t max_m, index_t max_k, FactorContext& ctx) override;
  const char* name() const override { return name_.c_str(); }
  Policy policy() const noexcept { return policy_; }

 private:
  /// Grows this policy's pool slots to the prepared maximum on first use.
  /// Only the pools are charged; no device storage is materialized.
  void ensure_prepared(FactorContext& ctx);
  FuOutcome run_p1(const FrontBlocks& f, FactorContext& ctx);
  FuOutcome run_p2(const FrontBlocks& f, FactorContext& ctx);
  FuOutcome run_p3(const FrontBlocks& f, FactorContext& ctx);
  FuOutcome run_p4(const FrontBlocks& f, FactorContext& ctx);

  Policy policy_;
  ExecutorOptions options_;
  std::string name_;
  index_t prepared_m_ = -1;
  index_t prepared_k_ = -1;
  bool prepared_applied_ = false;
};

/// Chooses a policy per call from the FuCall descriptor — the hybrid
/// schemes plug in here. A dispatcher is fault tolerant exactly when its
/// device injects faults: it validates GPU panels (finite check), retries a
/// faulted F-U once on the device, then redoes the front on the host P1
/// path; a fault-free device runs the plain policy executors, byte for
/// byte. Every outcome record it returns is marked
/// `dispatched`, carries the predictor's estimate when one is attached, and
/// has the device faults it survived charged to it: the trace record is the
/// profiler's policy- and fault-audit source.
///
/// execute_batch() is the aggregated small-front path (Policy::Batched):
/// the whole group runs as one potrf/trsm/syrk dispatch with one coalesced
/// transfer each way. Members that fault degrade individually — they are
/// restored and re-executed through the per-front path; the rest of the
/// batch is unaffected.
class DispatchExecutor : public FuExecutor {
 public:
  using Chooser = std::function<Policy(const FuCall& call)>;
  /// Optional: the dispatcher's own estimate of the chosen call's time in
  /// seconds (the ideal hybrid's dry-run oracle provides one; threshold and
  /// classifier strategies do not predict times and leave it unset).
  using TimePredictor =
      std::function<double(const FuCall& call, Policy chosen)>;

  DispatchExecutor(std::string name, Chooser chooser,
                   ExecutorOptions options = {});

  /// Attach a predicted-time source (FuCallRecord::predicted_seconds).
  void set_predictor(TimePredictor predictor) {
    predictor_ = std::move(predictor);
  }

  FuOutcome execute(FrontBlocks front, FactorContext& ctx) override;
  std::vector<FuOutcome> execute_batch(std::span<FrontBlocks> fronts,
                                       FactorContext& ctx) override;
  void prepare(index_t max_m, index_t max_k, FactorContext& ctx) override;
  const char* name() const override { return name_.c_str(); }
  std::int64_t fault_count() const override { return fault_count_; }

 private:
  /// Fault-tolerant path: scoped injection, validate/retry/fallback.
  FuOutcome execute_tolerant(const FrontBlocks& front, FactorContext& ctx,
                             Policy choice);
  void snapshot_front(const FrontBlocks& front, std::vector<double>& buf);
  void restore_front(const FrontBlocks& front,
                     const std::vector<double>& buf) const;
  /// Per-front loop fallback for execute_batch (no device or a dead
  /// device).
  std::vector<FuOutcome> batch_singles(std::span<FrontBlocks> fronts,
                                       FactorContext& ctx);

  std::string name_;
  Chooser chooser_;
  TimePredictor predictor_;
  std::array<std::unique_ptr<PolicyExecutor>, 4> executors_;
  std::int64_t fault_count_ = 0;
  std::vector<double> snapshot_;  ///< pre-attempt copy of l1/l2/u
  /// Batched-path scratch: per-member pre-dispatch snapshots.
  std::vector<std::vector<double>> batch_snapshots_;
};

/// Dry-run timing oracle: simulates one F-U call of each policy on a
/// private device/clock and reports its cost. This is the "observed
/// timings" source for the ideal hybrid, the baseline thresholds, and the
/// classifier's training data.
class PolicyTimer {
 public:
  /// Prices calls under `options` on the Xeon 5160 host and a default dry
  /// device. The pools are warmed with one maximal call per policy so
  /// reported times reflect the steady state of the paper's high-water
  /// allocation policy (a cold timer would charge every pool growth to the
  /// call that triggered it). Every call is priced from a rewound clock on
  /// idle streams, so a price is a pure function of (policy, m, k): timers
  /// with different histories agree bitwise.
  explicit PolicyTimer(ExecutorOptions options = {});

  /// Host-visible duration (seconds) of one F-U call under `policy`.
  double time(Policy policy, const FuCall& call);
  /// Full component record of one simulated call.
  FuCallRecord record(Policy policy, const FuCall& call);
  /// The fastest per-front policy for the call — the paper's ideal hybrid
  /// P_IH (sweeps P1..P4; Policy::Batched is priced by time_batched).
  Policy best_policy(const FuCall& call);

  /// Per-front share (seconds) of one aggregated dispatch of `batch`
  /// identical fronts shaped like `call` — the dry-run price of a
  /// Policy::Batched decision, memoized by (m, k, batch). Runs the same
  /// batched dispatch code as DispatchExecutor::execute_batch on the dry
  /// device (warm pools), so the audit's regret gauges stay exact.
  double time_batched(const FuCall& call, int batch);

 private:
  /// Run one dry call of every policy at (m, k) to size the pools.
  void warm_up(index_t m, index_t k);
  /// Host clock and device streams back to time zero; the pools stay warm.
  void rewind();

  FactorContext ctx_;
  std::unique_ptr<Device> device_;
  std::array<std::unique_ptr<PolicyExecutor>, 4> executors_;
  std::map<std::tuple<index_t, index_t, int>, double> batched_cache_;
};

}  // namespace mfgpu
