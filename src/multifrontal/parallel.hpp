// Task-parallel numeric factorization: the assembly tree executed by real
// threads on a work-stealing pool (sched/thread_pool.hpp) — the wall-clock
// counterpart of the serial postorder driver (multifrontal/factorization.hpp)
// for the paper's multi-worker runs (Table VII: 4 CPU threads, 2 threads +
// 2 GPUs). Table VII's multi-worker columns are priced by the deterministic
// fan-both engine instead (cluster/cluster.hpp on shared_memory_link()),
// because this pool's virtual makespan depends on which thread wins a steal.
//
// Execution model
//   - One worker per WorkerSpec. Worker deques are seeded with the leaves
//     via proportional mapping, so whole subtrees stay worker-local and only
//     separator update matrices cross queues; critical-path (bottom-level)
//     priority orders each worker's seeds.
//   - Every worker is a FrontWorker (multifrontal/front_step.hpp) owning its
//     full execution state: a FactorContext (virtual host clock + calibrated
//     host model), a StackArena backing its frontal working storage, its
//     FuExecutor, and — for GPU-bearing workers — a private simulated Device
//     with its own streams, so no gpusim state is ever shared between
//     threads. Each pool task runs the same front step as the serial
//     driver; only the traversal differs.
//   - A parent assembles only after its ready-counter hits zero (pool
//     acquire-release hand-off); children publish packed update matrices in
//     per-task buffers, freed as soon as the parent consumed them.
//
// Time has two domains here. Wall-clock time is real (kernels do real work
// on real threads; see bench/bench_parallel_scaling.cpp). Virtual time is
// tracked per worker by the shared front step: a task's virtual start is
// max(worker clock, children's virtual update-ready times), and
// trace.total_time is the virtual makespan max over workers — the executed
// schedule priced on the paper's calibrated hardware model.
//
// Determinism: with deterministic_reduction (default), children are
// extend-added in the serial driver's order (descending child index), so the
// result is BITWISE identical to factorize() for any thread count. With it
// off, children are assembled in completion order (roundoff-level
// differences; iterative refinement absorbs them).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "multifrontal/factorization.hpp"
#include "policy/executors.hpp"
#include "sched/worker.hpp"

namespace mfgpu {

struct ParallelFactorizeOptions {
  /// Worker count when `workers` is empty (CPU-only workers, policy P1 —
  /// the paper's multithreaded WSMP baseline).
  int num_threads = 1;
  /// Explicit worker list (overrides num_threads); GPU-bearing workers get
  /// a private simulated Device and run the hybrid policy dispatch.
  std::vector<WorkerSpec> workers;
  /// Fixed child-assembly order: bitwise-equal to the serial factorization.
  bool deterministic_reduction = true;
  /// Storage, batching, and the schedule flight recorder (one lane per
  /// worker).
  FactorizeOptions numeric;
  ExecutorOptions executor;
  /// Template for each GPU worker's private device.
  Device::Options device;
};

/// Builds one worker's executor; called once per worker before the run (the
/// executor is then used exclusively by that worker's thread).
using WorkerExecutorFactory =
    std::function<std::unique_ptr<FuExecutor>(const WorkerSpec& spec, int worker)>;

/// The default factory: CPU workers run P1; GPU workers dispatch the
/// paper's baseline hybrid.
std::unique_ptr<FuExecutor> default_worker_executor(
    const WorkerSpec& spec, const ExecutorOptions& executor_options);

/// Factor `analysis` with real threads. Matches factorize()'s contract
/// (panels, trace, NotPositiveDefiniteError propagation from any worker);
/// numeric execution only.
FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const ParallelFactorizeOptions& options = {},
                                   const WorkerExecutorFactory& make_executor = {});

}  // namespace mfgpu
