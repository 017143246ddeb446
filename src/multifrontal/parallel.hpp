// The planned numeric driver: every factorization is a walk of one
// PoolPlan by FrontWorkers (multifrontal/front_step.hpp). One worker walks
// the plan's nodes on the calling thread in the serial order — the paper's
// postorder with one LIFO update stack, or, when batching, a height-major
// sweep — and starts no thread; more workers hand the same plan to a
// work-stealing pool (sched/thread_pool.hpp), the wall-clock counterpart
// for the paper's multi-worker runs (Table VII: 4 CPU threads, 2 threads +
// 2 GPUs). factorize() (multifrontal/factorization.hpp) is the one-worker
// walk on the caller's executor and context. Table VII's multi-worker
// columns are priced by the deterministic fan-both engine instead
// (cluster/cluster.hpp on shared_memory_link()), because the pool's virtual
// makespan depends on which thread wins a steal.
//
// Execution model
//   - One worker per WorkerSpec. With more than one (and no batching),
//     the tree is cut as the solve cuts it: every maximal subtree carrying
//     at most 1/64 of the factor work is one pool node, walked in postorder
//     on one worker, and each supernode above the cut is a node of its
//     own. Worker deques are seeded via proportional mapping, so only the
//     update matrices of the nodes' top supernodes cross queues;
//     critical-path (bottom-level) priority orders each worker's seeds.
//   - Every worker is a FrontWorker owning its full execution state: a
//     FactorContext (virtual host clock + calibrated host model), a
//     StackArena holding its fronts' update blocks, its FuExecutor, and —
//     for GPU-bearing workers — a private simulated Device with its own
//     streams, so no gpusim state is ever shared between threads. Every
//     node runs the same front step; only the traversal differs.
//   - On the pool a node runs only after its ready-counter hits zero
//     (acquire-release hand-off). Inside a subtree node, updates go on the
//     worker's own LIFO update stack, as in the one-worker walk; a node's
//     top supernode publishes its packed update in a buffer of its own,
//     freed as soon as the parent consumed it.
//
// Time has two domains here. Wall-clock time is real (kernels do real work
// on real threads; see bench/bench_parallel_scaling.cpp). Virtual time is
// tracked per worker by the shared front step: a task's virtual start is
// max(worker clock, children's virtual update-ready times), and
// trace.total_time is the virtual makespan max over workers — the executed
// schedule priced on the paper's calibrated hardware model.
//
// Determinism: children are extend-added in the serial order (descending
// child index), so the factor is BITWISE identical for any worker count,
// and one worker reproduces factorize() exactly — factor, trace, times,
// memory marks and schedule record.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "multifrontal/batched.hpp"
#include "multifrontal/factorization.hpp"
#include "policy/executors.hpp"
#include "sched/worker.hpp"

namespace mfgpu {

class ThreadPool;

struct ParallelFactorizeOptions {
  /// Worker count when `workers` is empty (CPU-only workers, policy P1 —
  /// the paper's multithreaded WSMP baseline).
  int num_threads = 1;
  /// Explicit worker list (overrides num_threads); GPU-bearing workers get
  /// a private simulated Device and run the hybrid policy dispatch.
  std::vector<WorkerSpec> workers;
  /// Must stay true (the fixed child-assembly order is the only one);
  /// factorize_parallel throws InvalidArgumentError on false.
  bool deterministic_reduction = true;
  /// Storage, batching, and the schedule flight recorder (one lane per
  /// worker).
  FactorizeOptions numeric;
  ExecutorOptions executor;
  /// Template for each GPU worker's private device.
  Device::Options device;
  /// Pool to run more than one worker on, with at least one thread per
  /// worker (a Solver passes its own); null builds a transient pool for
  /// this call. One worker runs on the calling thread.
  ThreadPool* pool = nullptr;
};

/// Builds one worker's executor; called once per worker before the run (the
/// executor is then used exclusively by that worker's thread).
using WorkerExecutorFactory =
    std::function<std::unique_ptr<FuExecutor>(const WorkerSpec& spec, int worker)>;

/// The default factory: CPU workers run P1; GPU workers dispatch the
/// paper's baseline hybrid.
std::unique_ptr<FuExecutor> default_worker_executor(
    const WorkerSpec& spec, const ExecutorOptions& executor_options);

/// The values-independent half of a run, reusable across refactors of one
/// analysis: the batch plan and the assembly tree condensed to one node per
/// batch, per unbatched front or — with more than one worker and no
/// batching — per subtree group (subtree_groups, symbolic/tree_stats.hpp,
/// on supernode_work, sched/proportional_map.hpp: F-U ops plus assembly
/// entries). Nodes are numbered in walk order: postorder, or height-major
/// (ascending etree height, then supernode; a batch at its first member)
/// when batched. With more than one worker the plan also holds the
/// condensed tree in the pool's CSR form (condense_tree), with each node's
/// critical-path priority and proportional-mapping seed. Immutable once
/// built; every worker thread only reads it.
struct PoolPlan {
  int num_workers = 0;
  BatchPlan batches;
  /// Per node: the postorder range [node_begin, node_end) of its
  /// supernodes — one front, or a whole subtree whose root is the last —
  /// empty for a batch node, and its batch (-1 unless a batch node).
  std::vector<index_t> node_begin;
  std::vector<index_t> node_end;
  std::vector<index_t> node_batch;
  /// Per supernode: the node it runs in.
  std::vector<index_t> node_of;
  /// More than one worker only.
  std::vector<index_t> succ_ptr;
  std::vector<index_t> succ;
  std::vector<index_t> num_deps;
  std::vector<double> priority;
  std::vector<int> preferred_worker;
};

/// Build the pool plan for the workers and batching of `options`.
PoolPlan plan_pool(const Analysis& analysis,
                   const ParallelFactorizeOptions& options);

/// Factor `analysis` on the workers of `options`. Matches factorize()'s
/// contract (panels, trace, NotPositiveDefiniteError propagation from any
/// worker); numeric execution only. pool_stats stays empty for one worker.
/// Throws InvalidArgumentError when options.deterministic_reduction is
/// false. Builds the pool plan, then runs the overload below.
FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const ParallelFactorizeOptions& options = {},
                                   const WorkerExecutorFactory& make_executor = {});
/// The same run on a plan from plan_pool(analysis, options), which a
/// caller factoring one pattern many times builds once. `recycled` is an
/// earlier factor of the analysis whose store is overwritten in place.
FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const PoolPlan& plan,
                                   const ParallelFactorizeOptions& options,
                                   const WorkerExecutorFactory& make_executor = {},
                                   Factorization recycled = {});

}  // namespace mfgpu
