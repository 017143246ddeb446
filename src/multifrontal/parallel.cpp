#include "multifrontal/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "multifrontal/batched.hpp"
#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"
#include "obs/request_context.hpp"
#include "policy/baseline_hybrid.hpp"
#include "sched/proportional_map.hpp"
#include "sched/task_graph.hpp"
#include "sched/thread_pool.hpp"

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

  // Nodes in walk order: one per batch, one per unbatched supernode. Without
  // a batch plan that is the postorder itself. With one, fronts go by
  // ascending etree height (all children of a height-h front have height
  // < h), so every member of a batch is independent and ready together.
  std::vector<index_t> order(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) order[static_cast<std::size_t>(s)] = s;
  if (batches.any()) {
    std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return batches.height[static_cast<std::size_t>(a)] <
             batches.height[static_cast<std::size_t>(b)];
    });
  }
  auto batch_of = [&](index_t s) {
    return batches.any() ? batches.batch_of[static_cast<std::size_t>(s)] : -1;
  };
  std::vector<index_t> node_of(static_cast<std::size_t>(nsup), -1);
  std::vector<index_t> batch_node(batches.batches.size(), -1);
  for (index_t s : order) {
    const int b = batch_of(s);
    index_t& node = b < 0 ? node_of[static_cast<std::size_t>(s)]
                          : batch_node[static_cast<std::size_t>(b)];
    if (node == -1) {
      node = static_cast<index_t>(plan.node_single.size());
      plan.node_single.push_back(b < 0 ? s : -1);
      plan.node_batch.push_back(b);
    }
    node_of[static_cast<std::size_t>(s)] = node;
  }
  if (num_workers == 1) return plan;

  // The condensed tree for the pool. Edges follow the tree (one per
  // member-parent pair; duplicate edges between the same nodes are fine —
  // GraphDag counts each).
  const auto num_nodes = static_cast<index_t>(plan.node_single.size());
  const TaskGraph graph = build_task_graph(sym, analysis.permuted);
  const std::vector<double> bottom = bottom_levels(graph);
  const std::vector<int> mapping = proportional_mapping(graph, num_workers);
  std::vector<index_t>& succ_ptr = plan.succ_ptr;
  std::vector<index_t>& deps = plan.num_deps;
  succ_ptr.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  deps.assign(static_cast<std::size_t>(num_nodes), 0);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t p = graph.parent[static_cast<std::size_t>(s)];
    MFGPU_CHECK(p == -1 || (p > s && p < nsup),
                "factorize_parallel: assembly tree must be postordered");
    if (p == -1) continue;
    ++succ_ptr[static_cast<std::size_t>(
                   node_of[static_cast<std::size_t>(s)]) +
               1];
    ++deps[static_cast<std::size_t>(node_of[static_cast<std::size_t>(p)])];
  }
  for (index_t nd = 0; nd < num_nodes; ++nd) {
    succ_ptr[static_cast<std::size_t>(nd) + 1] +=
        succ_ptr[static_cast<std::size_t>(nd)];
  }
  plan.succ.resize(
      static_cast<std::size_t>(succ_ptr[static_cast<std::size_t>(num_nodes)]));
  std::vector<index_t> cursor(succ_ptr.begin(), succ_ptr.end() - 1);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t p = graph.parent[static_cast<std::size_t>(s)];
    if (p == -1) continue;
    const index_t src = node_of[static_cast<std::size_t>(s)];
    plan.succ[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(src)]++)] =
        node_of[static_cast<std::size_t>(p)];
  }

  // Critical-path priority and seeded worker per node: max member
  // priority (bottom levels are >= 0), first member's proportional mapping.
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
  return setup;
}

/// The one numeric driver: run every node of `plan` on `workers` (built on
/// `tree`). One worker walks the nodes on the calling thread in plan order;
/// more run the plan's DAG on `pool` (a transient one when null).
FactorizeResult walk(FrontTree& tree, std::span<FrontWorker> workers,
                     const PoolPlan& plan, ThreadPool* pool) {
  auto run_node = [&](index_t node, FrontWorker& worker) {
    const index_t b = plan.node_batch[static_cast<std::size_t>(node)];
    if (b >= 0) {
      worker.run_batch(b);
    } else {
      worker.run_front(plan.node_single[static_cast<std::size_t>(node)]);
    }
  };
  const auto num_nodes = static_cast<index_t>(plan.node_single.size());
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
