#include "multifrontal/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>

#include "multifrontal/batched.hpp"
#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"
#include "obs/request_context.hpp"
#include "policy/baseline_hybrid.hpp"
#include "sched/proportional_map.hpp"
#include "sched/thread_pool.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {

std::unique_ptr<FuExecutor> default_worker_executor(
    const WorkerSpec& spec, const ExecutorOptions& executor_options) {
  if (spec.has_gpu) {
    return std::make_unique<DispatchExecutor>(
        make_baseline_hybrid(paper_thresholds(), executor_options));
  }
  return std::make_unique<PolicyExecutor>(Policy::P1, executor_options);
}

namespace {

std::vector<WorkerSpec> worker_specs(const ParallelFactorizeOptions& options) {
  if (!options.workers.empty()) return options.workers;
  return cpu_workers(std::max(1, options.num_threads));
}

PoolPlan plan_walk(const Analysis& analysis, int num_workers, bool batching) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  PoolPlan plan;
  plan.num_workers = num_workers;
  if (nsup == 0) return plan;

  // Aggregated small-front batching (multifrontal/batched.hpp): planned on
  // the symbolic structure alone, so grouping is independent of the worker
  // count and the batched factor stays bitwise identical to the per-front
  // one.
  if (batching) plan.batches = group_batches(sym);
  const BatchPlan& batches = plan.batches;
  std::vector<double> work;
  if (num_workers > 1) work = supernode_work(sym, analysis.permuted);

  plan.node_of.assign(static_cast<std::size_t>(nsup), -1);
  auto add_node = [&](index_t begin, index_t end, index_t batch) {
    plan.node_begin.push_back(begin);
    plan.node_end.push_back(end);
    plan.node_batch.push_back(batch);
  };
  if (batches.any()) {
    // One node per batch and one per unbatched supernode, by ascending
    // etree height (all children of a height-h front have height < h), so
    // every member of a batch is independent and ready together.
    std::vector<index_t> order(static_cast<std::size_t>(nsup));
    std::iota(order.begin(), order.end(), index_t{0});
    std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return sym.height(a) < sym.height(b);
    });
    std::vector<index_t> batch_node(batches.batches.size(), -1);
    for (index_t s : order) {
      const int b = batches.batch_of[static_cast<std::size_t>(s)];
      index_t& node = b < 0 ? plan.node_of[static_cast<std::size_t>(s)]
                            : batch_node[static_cast<std::size_t>(b)];
      if (node == -1) {
        node = static_cast<index_t>(plan.node_batch.size());
        if (b < 0) {
          add_node(s, s + 1, -1);
        } else {
          add_node(-1, -1, b);
        }
      }
      plan.node_of[static_cast<std::size_t>(s)] = node;
    }
  } else {
    // Postorder ranges: one supernode each for one worker; for more, the
    // solve's subtree cut (symbolic/tree_stats.hpp) on factor work, so each
    // node is a whole subtree, its root last, or a lone supernode above
    // the cut.
    std::vector<index_t> ptr(static_cast<std::size_t>(nsup) + 1);
    if (num_workers > 1) {
      ptr = subtree_groups(sym, work);
    } else {
      std::iota(ptr.begin(), ptr.end(), index_t{0});
    }
    for (std::size_t g = 0; g + 1 < ptr.size(); ++g) {
      for (index_t s = ptr[g]; s < ptr[g + 1]; ++s) {
        plan.node_of[static_cast<std::size_t>(s)] = static_cast<index_t>(g);
      }
      add_node(ptr[g], ptr[g + 1], -1);
    }
  }
  if (num_workers == 1) return plan;

  // The condensed tree for the pool.
  const auto num_nodes = static_cast<index_t>(plan.node_batch.size());
  CondensedDag dag = condense_tree(sym, plan.node_of, num_nodes);
  plan.succ_ptr = std::move(dag.succ_ptr);
  plan.succ = std::move(dag.succ);
  plan.num_deps = std::move(dag.num_deps);

  // Critical-path priority and seeded worker per node: max member
  // priority (bottom levels are >= 0), first member's proportional mapping.
  const std::vector<double> bottom = bottom_levels(sym, work);
  const std::vector<int> mapping = proportional_mapping(sym, work, num_workers);
  const std::vector<index_t>& node_of = plan.node_of;
  plan.priority.assign(static_cast<std::size_t>(num_nodes), 0.0);
  plan.preferred_worker.assign(static_cast<std::size_t>(num_nodes), -1);
  for (index_t s = 0; s < nsup; ++s) {
    const std::size_t nd =
        static_cast<std::size_t>(node_of[static_cast<std::size_t>(s)]);
    plan.priority[nd] =
        std::max(plan.priority[nd], bottom[static_cast<std::size_t>(s)]);
    if (plan.preferred_worker[nd] < 0) {
      plan.preferred_worker[nd] = mapping[static_cast<std::size_t>(s)];
    }
  }
  return plan;
}

/// The tree setup every walk of `plan` derives: one recorder lane per
/// worker, and — for the one-worker postorder, which consumes updates in
/// reverse production order — one LIFO update stack.
FrontTree::Setup walk_setup(const PoolPlan& plan, bool numeric) {
  FrontTree::Setup setup;
  setup.num_lanes = plan.num_workers;
  setup.numeric = numeric;
  setup.plan = plan.batches.any() ? &plan.batches : nullptr;
  setup.update_stack = plan.num_workers == 1 && setup.plan == nullptr;
  setup.node_of = plan.node_of;
  return setup;
}

/// The one numeric driver: run every node of `plan` on `workers` (built on
/// `tree`). One worker walks the nodes on the calling thread in plan order;
/// more run the plan's DAG on `pool` (a transient one when null).
FactorizeResult walk(FrontTree& tree, std::span<FrontWorker> workers,
                     const PoolPlan& plan, ThreadPool* pool) {
  auto run_node = [&](index_t node, FrontWorker& worker) {
    const auto nd = static_cast<std::size_t>(node);
    if (plan.node_batch[nd] >= 0) {
      worker.run_batch(plan.node_batch[nd]);
      return;
    }
    for (index_t s = plan.node_begin[nd]; s < plan.node_end[nd]; ++s) {
      worker.run_front(s);
    }
  };
  const auto num_nodes = static_cast<index_t>(plan.node_batch.size());
  const int num_workers = static_cast<int>(workers.size());
  if (num_workers == 1) {
    for (index_t node = 0; node < num_nodes; ++node) {
      run_node(node, workers.front());
    }
    return tree.finish(workers);
  }

  // Capture the serving request bound to the calling thread (if any) so the
  // pool workers' spans, dispatch decisions, and fault events stay attributed
  // to it across the thread hop.
  const obs::RequestContext* request = obs::current_request();
  auto node_body = [&](index_t node, int w) {
    obs::RequestScope request_scope(request);
    run_node(node, workers[static_cast<std::size_t>(w)]);
  };
  std::optional<ThreadPool> transient;
  ThreadPool& threads =
      pool != nullptr ? *pool : transient.emplace(num_workers);
  MFGPU_CHECK(threads.num_threads() >= num_workers,
              "factorize_parallel: pool has fewer threads than workers");
  const auto wall_t0 = std::chrono::steady_clock::now();
  GraphDag dag;
  dag.succ_ptr = plan.succ_ptr;
  dag.succ = plan.succ;
  dag.num_deps = plan.num_deps;
  dag.preferred_worker = plan.preferred_worker;
  dag.priority = plan.priority;
  const PoolRunStats stats = threads.run_dag(dag, node_body, num_workers);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();

  FactorizeResult result = tree.finish(workers);
  result.pool_stats = stats;
  result.pool_wall_seconds = wall_seconds;

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add("sched.parallel.wall_seconds", wall_seconds);
    metrics.gauge_set("sched.parallel.workers",
                      static_cast<double>(num_workers));
    double busy = 0.0;
    for (double b : stats.busy_seconds) busy += b;
    if (wall_seconds > 0.0) {
      metrics.gauge_set("sched.parallel.utilization",
                        busy / (wall_seconds * num_workers));
    }
  }
  return result;
}

}  // namespace

PoolPlan plan_pool(const Analysis& analysis,
                   const ParallelFactorizeOptions& options) {
  return plan_walk(analysis, static_cast<int>(worker_specs(options).size()),
                   options.numeric.batching);
}

FactorizeResult factorize(const Analysis& analysis, FuExecutor& executor,
                          FactorContext& ctx,
                          const FactorizeOptions& options,
                          Factorization recycled) {
  const PoolPlan plan = plan_walk(analysis, 1, options.batching);
  obs::ScopedSpan factorize_span("multifrontal", "factorize",
                                 &ctx.host_clock);
  factorize_span.set_arg(0, "supernodes", analysis.symbolic.num_supernodes());
  factorize_span.set_arg(1, "batches",
                         static_cast<index_t>(plan.batches.batches.size()));
  FrontTree tree(analysis, options, walk_setup(plan, ctx.numeric),
                 std::move(recycled));
  FrontWorker worker(tree, executor, ctx);
  return walk(tree, std::span(&worker, 1), plan, nullptr);
}

FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const ParallelFactorizeOptions& options,
                                   const WorkerExecutorFactory& make_executor) {
  return factorize_parallel(analysis, plan_pool(analysis, options), options,
                            make_executor);
}

FactorizeResult factorize_parallel(const Analysis& analysis,
                                   const PoolPlan& plan,
                                   const ParallelFactorizeOptions& options,
                                   const WorkerExecutorFactory& make_executor,
                                   Factorization recycled) {
  if (!options.deterministic_reduction) {
    throw InvalidArgumentError(
        "factorize_parallel: deterministic_reduction must be true (children "
        "are always assembled in the fixed serial order)");
  }
  const index_t nsup = analysis.symbolic.num_supernodes();
  const std::vector<WorkerSpec> specs = worker_specs(options);
  const int num_workers = static_cast<int>(specs.size());
  MFGPU_CHECK(plan.num_workers == num_workers,
              "factorize_parallel: plan built for another worker count");
  MFGPU_CHECK(!plan.batches.any() || options.numeric.batching,
              "factorize_parallel: batched plan for an unbatched run");

  obs::ScopedSpan factorize_span("multifrontal", "parallel_factorize");
  factorize_span.set_arg(0, "supernodes", nsup);
  factorize_span.set_arg(1, "workers", num_workers);
  if (nsup == 0) return {};

  FrontTree tree(analysis, options.numeric, walk_setup(plan, true),
                 std::move(recycled));
  std::vector<FrontWorker> workers;
  workers.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    const WorkerSpec& spec = specs[static_cast<std::size_t>(w)];
    workers.emplace_back(tree, w, spec, options.device,
                         make_executor
                             ? make_executor(spec, w)
                             : default_worker_executor(spec, options.executor));
  }
  return walk(tree, workers, plan, options.pool);
}

}  // namespace mfgpu
