// The front step: the one unit of work of the multifrontal numeric phase —
// assemble a front, run its factor-update call through the worker's
// executor, publish the factor panel and the update matrix for the parent —
// shared by every factorization driver (the planned walk of
// multifrontal/parallel.hpp at any worker count, factorize_cluster). The
// drivers differ only in the order in which they schedule this task body.
//
// FrontTree holds what all workers of one run share: the symbolic
// structure, the buffers of the updates that cross tasks, and the
// per-supernode outputs (each slot written by exactly one step, so worker
// threads never contend). FrontWorker holds one worker's execution state —
// context, executor, optional private device, front arena, LIFO stack of
// the updates its own walk consumes, relative-index scratch, recorder
// lane — and runs the step. FrontTree::finish() drains every worker and
// reduces them into the FactorizeResult.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "multifrontal/batched.hpp"
#include "multifrontal/factorization.hpp"
#include "multifrontal/stack_arena.hpp"
#include "sched/worker.hpp"

namespace mfgpu {

class FrontalMatrix;
class FrontWorker;

class FrontTree {
 public:
  struct Setup {
    /// Recorder lanes: one per worker. More than one makes the run
    /// parallel (the flight record's `parallel` flag).
    int num_lanes = 1;
    /// false = timing-only dry run (shape-only blocks, no numeric storage).
    bool numeric = true;
    /// Aggregated small-front plan; run_batch() executes its batches.
    const BatchPlan* plan = nullptr;
    /// Keep every child update on the worker's LIFO StackArena sized to
    /// the symbolic peak — valid only for the one-worker postorder walk,
    /// where updates are consumed in reverse production order.
    bool update_stack = false;
    /// Per supernode (or empty): the walk node it runs in. A node holding a
    /// whole subtree runs it in postorder on one worker, so an update whose
    /// parent is in the same node stays on that worker's LIFO stack. Every
    /// other update is published into a buffer of its own, freed once the
    /// parent consumed it.
    std::span<const index_t> node_of;
  };

  /// `recycled` is the store of an earlier factor, overwritten in place
  /// when its layout matches this analysis (Factorization::lay_out).
  FrontTree(const Analysis& analysis, const FactorizeOptions& options,
            const Setup& setup, Factorization recycled = {});
  // Workers and the cluster's hooks hold its address.
  FrontTree(const FrontTree&) = delete;
  FrontTree& operator=(const FrontTree&) = delete;

  /// Optional cross-node arrival (the cluster driver): the virtual time at
  /// which child `child`'s update lands on `lane` when it must travel there,
  /// nullopt when it is local. A landing is waited for as Transfer-class
  /// time instead of a recorded dependency join.
  std::function<std::optional<double>(index_t child, int lane)>
      remote_arrival;

  /// Virtual time at which supernode s's update is safe to consume.
  double update_ready(index_t s) const {
    return ready_[static_cast<std::size_t>(s)];
  }

  /// Drain every worker (epilogue task, device synchronize), record the
  /// trace in supernode order and the per-worker memory high water, and
  /// emit the run's metrics. trace.total_time is the virtual makespan over
  /// the workers' clocks.
  FactorizeResult finish(std::span<FrontWorker> workers);

 private:
  friend class FrontWorker;

  /// More than one lane: workers run on threads (or cluster nodes) and
  /// report their front arenas.
  bool parallel() const noexcept { return setup_.num_lanes > 1; }
  /// Panels are assembled in place in the factor's store.
  bool keeps_panels() const noexcept {
    return options_.store_factor && setup_.numeric;
  }
  /// Whether s's update stays on its worker's LIFO update stack.
  bool stacked(index_t s) const;

  const SymbolicFactor& sym_;
  const SparseSpd& a_;
  const FactorizeOptions& options_;
  Setup setup_;
  index_t nsup_ = 0;
  index_t max_m_ = 0;
  index_t max_k_ = 0;
  /// Doubles a worker's front arena needs for its largest task (a front or
  /// a batch): each front's update block, plus its panel when the factor
  /// is not kept.
  index_t front_entries_ = 0;
  std::vector<std::vector<index_t>> children_;

  /// Whether any update stays on a worker's stack: each worker then owns
  /// one, sized to the symbolic peak.
  bool any_stacked_ = false;
  /// The updates that cross tasks, each in a buffer of its own.
  std::vector<std::unique_ptr<double[]>> buffers_;
  std::int64_t live_entries_ = 0;
  std::int64_t peak_entries_ = 0;
  std::vector<double> ready_;

  std::vector<FuCallRecord> records_;
  Factorization factor_;
};

// Workers run on different threads and update their own state per front:
// each starts on its own cache line so neighbours in a vector never share
// one.
class alignas(64) FrontWorker {
 public:
  /// Lane 0 on the caller's executor and context (factorize()).
  FrontWorker(FrontTree& tree, FuExecutor& executor, FactorContext& ctx);
  /// A worker owning its context, its executor, and a private simulated
  /// device when `spec.has_gpu` (built from `device`) — factorize_parallel
  /// and the cluster driver. Every worker holds its working fronts' update
  /// blocks on its own arena.
  FrontWorker(FrontTree& tree, int lane, const WorkerSpec& spec,
              const Device::Options& device,
              std::unique_ptr<FuExecutor> executor);

  /// Join the children, assemble, execute and publish supernode s.
  void run_front(index_t s);
  /// The same for planned batch b: every member is assembled, the group
  /// runs through one execute_batch, and each member publishes on its own.
  void run_batch(index_t b);

  FactorContext& ctx() noexcept { return *ctx_; }

 private:
  friend class FrontTree;

  void prepare();
  /// The front of supernode s: its panel (in the factor's store, or on the
  /// arena when the factor is not kept) and its update block (in the
  /// store's unwritten tail in the one-worker postorder when it fits, else
  /// on the arena), both zeroed.
  FrontalMatrix open_front(index_t s);
  void assemble(index_t s, FrontalMatrix& front);
  FrontBlocks blocks_of(index_t s, FrontalMatrix& front, index_t level) const;
  void publish(index_t s, FrontalMatrix& front, FuOutcome outcome);
  void charge_assembly(double entries);
  std::span<const double> take_update(index_t child);
  void release_update(index_t child);
  std::span<double> publish_update(index_t s, index_t entries);

  FrontTree* tree_;
  int lane_ = 0;
  std::unique_ptr<FactorContext> own_ctx_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<FuExecutor> own_executor_;
  FactorContext* ctx_;
  FuExecutor* executor_;
  std::unique_ptr<StackArena> front_arena_;
  /// The updates consumed inside this worker's walk (FrontTree::stacked).
  std::unique_ptr<StackArena> update_stack_;
  /// A child's relative indices during extend-add.
  std::vector<index_t> rel_scratch_;
  obs::ScheduleRecorder* rec_;
  double start_time_ = 0.0;
  double assembly_time_ = 0.0;
};

}  // namespace mfgpu
