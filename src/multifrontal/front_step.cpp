#include "multifrontal/front_step.hpp"

#include <algorithm>

#include "gpusim/cost_class.hpp"
#include "multifrontal/frontal.hpp"
#include "obs/obs.hpp"
#include "obs/schedule_record.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {

FrontTree::FrontTree(const Analysis& analysis, const FactorizeOptions& options,
                     const Setup& setup, Factorization recycled)
    : sym_(analysis.symbolic),
      a_(analysis.permuted),
      options_(options),
      setup_(setup),
      nsup_(analysis.symbolic.num_supernodes()) {
  std::vector<index_t> parent(static_cast<std::size_t>(nsup_));
  std::vector<index_t> batch_entries(
      setup_.plan != nullptr ? setup_.plan->batches.size() : 0, 0);
  for (index_t s = 0; s < nsup_; ++s) {
    const SupernodeInfo& sn = sym_.supernodes()[static_cast<std::size_t>(s)];
    parent[static_cast<std::size_t>(s)] = sn.parent;
    max_m_ = std::max(max_m_, sn.num_update_rows());
    max_k_ = std::max(max_k_, sn.width());
    if (!setup_.numeric) continue;
    const index_t entries =
        sn.num_update_rows() * sn.num_update_rows() +
        (keeps_panels() ? 0 : sn.front_order() * sn.width());
    const int b = setup_.plan != nullptr
                      ? setup_.plan->batch_of[static_cast<std::size_t>(s)]
                      : -1;
    if (b >= 0) {
      index_t& sum = batch_entries[static_cast<std::size_t>(b)];
      sum += entries;
      front_entries_ = std::max(front_entries_, sum);
    } else {
      front_entries_ = std::max(front_entries_, entries);
    }
  }
  children_ = children_lists(parent);

  // Dry runs skip the numeric hand-off entirely (the assembly cost is
  // charged from the symbolic sizes), so huge matrices can be timed cheaply.
  for (index_t s = 0; s < nsup_ && !any_stacked_; ++s) any_stacked_ = stacked(s);
  if (!setup_.update_stack) buffers_.resize(static_cast<std::size_t>(nsup_));
  ready_.assign(static_cast<std::size_t>(nsup_), 0.0);
  records_.resize(static_cast<std::size_t>(nsup_));

  if (keeps_panels()) {
    factor_ = std::move(recycled);
    factor_.lay_out(sym_.supernodes());
  }
  factor_.numeric = setup_.numeric;
  if (options_.recorder != nullptr) {
    options_.recorder->start(setup_.num_lanes, nsup_, parent, parallel(),
                             setup_.plan != nullptr);
  }
}

bool FrontTree::stacked(index_t s) const {
  if (setup_.update_stack) return true;
  if (setup_.node_of.empty()) return false;
  const index_t p = sym_.supernodes()[static_cast<std::size_t>(s)].parent;
  return p != -1 && setup_.node_of[static_cast<std::size_t>(p)] ==
                        setup_.node_of[static_cast<std::size_t>(s)];
}

FrontWorker::FrontWorker(FrontTree& tree, FuExecutor& executor,
                         FactorContext& ctx)
    : tree_(&tree),
      ctx_(&ctx),
      executor_(&executor),
      front_arena_(std::make_unique<StackArena>(tree.front_entries_)),
      rec_(tree.options_.recorder) {
  prepare();
}

FrontWorker::FrontWorker(FrontTree& tree, int lane, const WorkerSpec& spec,
                         const Device::Options& device,
                         std::unique_ptr<FuExecutor> executor)
    : tree_(&tree),
      lane_(lane),
      own_ctx_(std::make_unique<FactorContext>()),
      own_executor_(std::move(executor)),
      ctx_(own_ctx_.get()),
      executor_(own_executor_.get()),
      front_arena_(std::make_unique<StackArena>(tree.front_entries_)),
      rec_(tree.options_.recorder) {
  MFGPU_CHECK(executor_ != nullptr,
              "FrontWorker: executor factory returned null");
  if (spec.has_gpu) {
    Device::Options device_options = device;
    device_options.numeric = true;
    device_ = std::make_unique<Device>(device_options);
    ctx_->device = device_.get();
  }
  prepare();
}

void FrontWorker::prepare() {
  FrontTree& tree = *tree_;
  if (tree.any_stacked_) {
    update_stack_ = std::make_unique<StackArena>(
        tree.setup_.numeric ? tree.sym_.peak_update_stack_entries() : 0);
  }
  if (tree.setup_.numeric) {
    rel_scratch_.resize(static_cast<std::size_t>(tree.max_m_));
  }
  FactorContext& ctx = *ctx_;
  if (rec_ != nullptr) {
    rec_->attach(lane_, ctx.host_clock, ctx.device != nullptr);
  }
  start_time_ = ctx.host_clock.now();
  // Size the executor's device/pinned pools once for the biggest front the
  // symbolic analysis predicts (WSMP-style symbolic-driven preallocation).
  if (rec_ != nullptr) {
    rec_->begin_task(lane_, obs::TaskKind::Prologue, -1, ctx.host_clock);
  }
  executor_->prepare(tree.max_m_, tree.max_k_, ctx);
  if (rec_ != nullptr) rec_->end_task(lane_, ctx.host_clock);
}

std::span<const double> FrontWorker::take_update(index_t child) {
  // LIFO: the topmost block belongs to the most recently finished child,
  // which is the next one in descending child order.
  if (tree_->stacked(child)) return update_stack_->from_top(0);
  const SupernodeInfo& sn =
      tree_->sym_.supernodes()[static_cast<std::size_t>(child)];
  return {tree_->buffers_[static_cast<std::size_t>(child)].get(),
          static_cast<std::size_t>(packed_lower_size(sn.num_update_rows()))};
}

void FrontWorker::release_update(index_t child) {
  FrontTree& tree = *tree_;
  if (tree.stacked(child)) {
    update_stack_->pop();
    return;
  }
  // Only a one-lane run reports its live buffers (parallel workers report
  // their arenas), so only it counts them and worker threads share no
  // counter.
  if (!tree.parallel()) {
    tree.live_entries_ -= packed_lower_size(
        tree.sym_.supernodes()[static_cast<std::size_t>(child)]
            .num_update_rows());
  }
  tree.buffers_[static_cast<std::size_t>(child)].reset();  // freed once consumed
}

std::span<double> FrontWorker::publish_update(index_t s, index_t entries) {
  FrontTree& tree = *tree_;
  if (tree.stacked(s)) return update_stack_->push_for_overwrite(entries);
  // Crosses to another task: a buffer of its own, left uninitialized for
  // pack_update to fill.
  auto& buffer = tree.buffers_[static_cast<std::size_t>(s)];
  buffer = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(entries));
  if (!tree.parallel()) {
    tree.live_entries_ += entries;
    tree.peak_entries_ = std::max(tree.peak_entries_, tree.live_entries_);
  }
  return {buffer.get(), static_cast<std::size_t>(entries)};
}

void FrontWorker::charge_assembly(double entries) {
  FactorContext& ctx = *ctx_;
  HostExec host = ctx.host_exec();
  const double t0 = ctx.host_clock.now();
  host_assembly_cost(host, entries);
  assembly_time_ += ctx.host_clock.now() - t0;
}

FrontalMatrix FrontWorker::open_front(index_t s) {
  FrontTree& tree = *tree_;
  const SupernodeInfo& sn = tree.sym_.supernodes()[static_cast<std::size_t>(s)];
  if (!tree.setup_.numeric) return FrontalMatrix(sn);
  const index_t k = sn.width();
  const index_t m = sn.num_update_rows();
  const index_t order = k + m;
  double* update = nullptr;
  MatrixView<double> panel;
  if (tree.keeps_panels()) {
    panel = tree.factor_.panels[static_cast<std::size_t>(s)];
    std::fill_n(panel.data(), order * k, 0.0);
    if (tree.setup_.update_stack) {
      // The one-worker postorder factors every supernode after s later, so
      // the store's tail — their panels, not yet written — holds s's update
      // block when it fits there, and the front costs no memory beyond the
      // factor's own.
      double* const begin = tree.factor_.panels.front().data();
      const MatrixView<double>& last = tree.factor_.panels.back();
      const index_t end = (last.data() - begin) + last.rows() * last.cols();
      const index_t free_from = (panel.data() - begin) + order * k;
      if (end - free_from >= m * m) {
        update = begin + (end - m * m);
        std::fill_n(update, m * m, 0.0);
      }
    }
  } else {
    panel = MatrixView<double>(front_arena_->push(order * k).data(), order, k,
                               std::max<index_t>(order, 1));
  }
  if (update == nullptr) update = front_arena_->push(m * m).data();
  return FrontalMatrix(sn, panel,
                       MatrixView<double>(update, m, m, std::max<index_t>(m, 1)),
                       rel_scratch_);
}

void FrontWorker::assemble(index_t s, FrontalMatrix& front) {
  FrontTree& tree = *tree_;
  FactorContext& ctx = *ctx_;
  const auto& kids = tree.children_[static_cast<std::size_t>(s)];

  // Virtual start: a front cannot assemble before its children's update
  // matrices are (virtually) ready — or, across cluster nodes, have landed.
  for (index_t c : kids) {
    if (tree.remote_arrival) {
      if (const std::optional<double> landed = tree.remote_arrival(c, lane_)) {
        CostClassScope transfer(CostClass::Transfer);
        ctx.host_clock.advance_to(*landed);
        continue;
      }
    }
    if (rec_ != nullptr) rec_->note_join(lane_, c);
    ctx.host_clock.advance_to(tree.update_ready(c));
  }

  // Scatter A's entries, then extend-add the children in descending child
  // index: the order the serial LIFO stack pops them, so every driver sums
  // each entry in the same order.
  double entries = static_cast<double>(front.assemble_from_matrix(tree.a_));
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    const SupernodeInfo& child =
        tree.sym_.supernodes()[static_cast<std::size_t>(*it)];
    if (tree.setup_.numeric) {
      entries += static_cast<double>(
          front.extend_add(child.update_rows, take_update(*it)));
      release_update(*it);
    } else {
      entries +=
          static_cast<double>(packed_lower_size(child.num_update_rows()));
    }
  }
  charge_assembly(entries);
}

FrontBlocks FrontWorker::blocks_of(index_t s, FrontalMatrix& front,
                                   index_t level) const {
  const SupernodeInfo& sn =
      tree_->sym_.supernodes()[static_cast<std::size_t>(s)];
  FrontBlocks blocks = make_shape_blocks(front.m(), front.k(), sn.first_col);
  blocks.snode = s;
  blocks.level = level;
  if (tree_->setup_.numeric) {
    blocks.l1 = front.l1();
    blocks.l2 = front.l2();
    blocks.u = front.update();
  }
  return blocks;
}

void FrontWorker::publish(index_t s, FrontalMatrix& front, FuOutcome outcome) {
  FrontTree& tree = *tree_;
  FactorContext& ctx = *ctx_;
  const std::size_t slot = static_cast<std::size_t>(s);
  outcome.record.snode = s;
  tree.records_[slot] = outcome.record;

  // The factor panel was assembled in place; storing it is still charged
  // as the memory-bound pass it is in the calibrated model.
  charge_assembly(static_cast<double>(front.order()) *
                  static_cast<double>(front.k()));

  const int policy = static_cast<int>(outcome.record.policy);
  if (tree.sym_.supernodes()[slot].parent == -1) {
    MFGPU_CHECK(front.m() == 0, "factorize: root supernode with update rows");
    if (rec_ != nullptr) {
      rec_->note_ready(lane_, s, outcome.update_ready_at, policy);
    }
    ctx.host_clock.advance_to(outcome.update_ready_at);
    return;
  }
  // Hand the update matrix to the parent.
  const index_t entries = packed_lower_size(front.m());
  if (tree.setup_.numeric) front.pack_update(publish_update(s, entries));
  charge_assembly(static_cast<double>(entries));
  if (rec_ != nullptr) {
    rec_->note_ready(lane_, s, outcome.update_ready_at, policy);
  }
  tree.ready_[slot] = std::max(outcome.update_ready_at, ctx.host_clock.now());
}

namespace {

/// Pops the blocks a step pushed on its worker's arena when the step
/// leaves, thrown or not.
struct ArenaMark {
  StackArena& arena;
  index_t blocks = arena.num_blocks();
  ~ArenaMark() {
    while (arena.num_blocks() > blocks) arena.pop();
  }
};

}  // namespace

void FrontWorker::run_front(index_t s) {
  FactorContext& ctx = *ctx_;
  obs::ScopedSpan task_span("multifrontal", "fu_task", &ctx.host_clock);
  task_span.set_arg(0, "snode", s);
  task_span.set_arg(1, "worker", lane_);
  if (rec_ != nullptr) {
    rec_->begin_task(lane_, obs::TaskKind::Front, s, ctx.host_clock);
  }

  const ArenaMark arena_mark{*front_arena_};
  FrontalMatrix front = open_front(s);
  assemble(s, front);

  FrontBlocks blocks = blocks_of(s, front, 0);
  FuOutcome outcome;
  {
    obs::ScopedSpan fu_span("multifrontal", "factor_update", &ctx.host_clock);
    if (rec_ != nullptr) rec_->begin_exec(lane_);
    outcome = executor_->execute(blocks, ctx);
    if (rec_ != nullptr) rec_->end_exec(lane_);
    fu_span.set_arg(0, "m", front.m());
    fu_span.set_arg(1, "k", front.k());
    fu_span.set_arg(2, "policy", outcome.record.policy);
  }
  publish(s, front, outcome);
  if (rec_ != nullptr) rec_->end_task(lane_, ctx.host_clock);
}

void FrontWorker::run_batch(index_t b) {
  FactorContext& ctx = *ctx_;
  const FrontBatch& batch =
      tree_->setup_.plan->batches[static_cast<std::size_t>(b)];
  const std::size_t width = batch.snodes.size();
  obs::ScopedSpan task_span("multifrontal", "fu_task_batch", &ctx.host_clock);
  task_span.set_arg(0, "fronts", static_cast<index_t>(width));
  task_span.set_arg(1, "level", batch.level);
  task_span.set_arg(2, "worker", lane_);
  if (rec_ != nullptr) {
    rec_->begin_task(lane_, obs::TaskKind::Batch, b, ctx.host_clock);
  }

  const ArenaMark arena_mark{*front_arena_};
  std::vector<FrontalMatrix> fronts;
  fronts.reserve(width);
  std::vector<FrontBlocks> blocks;
  blocks.reserve(width);
  for (index_t member : batch.snodes) {
    fronts.push_back(open_front(member));
    assemble(member, fronts.back());
    blocks.push_back(blocks_of(member, fronts.back(), batch.level));
  }
  std::vector<FuOutcome> outcomes;
  {
    obs::ScopedSpan fu_span("multifrontal", "factor_update_batch",
                            &ctx.host_clock);
    if (rec_ != nullptr) rec_->begin_exec(lane_);
    outcomes = executor_->execute_batch(blocks, ctx);
    if (rec_ != nullptr) rec_->end_exec(lane_);
    fu_span.set_arg(0, "fronts", static_cast<index_t>(width));
    fu_span.set_arg(1, "level", batch.level);
  }
  MFGPU_CHECK(outcomes.size() == width,
              "factorize: executor returned wrong batch size");
  for (std::size_t i = 0; i < width; ++i) {
    publish(batch.snodes[i], fronts[i], outcomes[i]);
  }
  if (rec_ != nullptr) rec_->end_task(lane_, ctx.host_clock);
}

FactorizeResult FrontTree::finish(std::span<FrontWorker> workers) {
  obs::ScheduleRecorder* rec = options_.recorder;
  const bool metrics_on = obs::enabled();
  FactorizeResult result;
  // Drain in-flight device copies and reduce the worker clocks into the
  // virtual makespan: the executed schedule priced on the calibrated model.
  double makespan = 0.0;
  double start = workers.empty() ? 0.0 : workers.front().start_time_;
  double assembly_total = 0.0;
  std::int64_t arena_peak_entries = 0;
  for (FrontWorker& worker : workers) {
    FactorContext& ctx = *worker.ctx_;
    if (rec != nullptr) {
      rec->begin_task(worker.lane_, obs::TaskKind::Epilogue, -1,
                      ctx.host_clock);
    }
    if (ctx.device != nullptr) {
      ctx.device->synchronize(ctx.host_clock);
      ctx.device->release_storage();
    }
    if (rec != nullptr) {
      rec->end_task(worker.lane_, ctx.host_clock);
      rec->detach(worker.lane_, ctx.host_clock);
    }
    makespan = std::max(makespan, ctx.host_clock.now());
    start = std::min(start, worker.start_time_);
    assembly_total += worker.assembly_time_;
    result.faults_survived += worker.executor_->fault_count();

    // The arenas holding the worker's fronts and the updates inside its
    // subtree tasks or — for a one-lane run — the update matrices.
    const std::int64_t stack_peak =
        worker.update_stack_ != nullptr ? worker.update_stack_->peak_entries()
                                        : 0;
    const std::int64_t arena_peak =
        parallel() ? worker.front_arena_->peak_entries() + stack_peak
        : setup_.update_stack ? stack_peak
                              : peak_entries_;
    arena_peak_entries = std::max(arena_peak_entries, arena_peak);
    WorkerMemory mem;
    mem.worker = worker.lane_;
    mem.arena_peak_bytes =
        arena_peak * static_cast<std::int64_t>(sizeof(double));
    if (const Device* device = ctx.device; device != nullptr) {
      const PoolStats& pool = device->device_pool_stats();
      const PoolStats& pinned = device->pinned_pool_stats();
      mem.device_pool_peak_bytes = pool.peak_bytes;
      mem.pinned_pool_peak_bytes = pinned.peak_bytes;
      mem.device_pool_charged_allocs = pool.charged_allocations;
      mem.pinned_pool_charged_allocs = pinned.charged_allocations;
      if (metrics_on) {
        auto& metrics = obs::MetricsRegistry::global();
        metrics.gauge_max("gpusim.pool.device.peak_bytes",
                          static_cast<double>(pool.peak_bytes));
        metrics.gauge_max("gpusim.pool.pinned.peak_bytes",
                          static_cast<double>(pinned.peak_bytes));
      }
    }
    result.memory.push_back(mem);
  }

  FactorizationTrace& trace = result.trace;
  for (const FuCallRecord& record : records_) trace.record_call(record);
  trace.assembly_time = assembly_total;
  trace.total_time = makespan - start;
  result.factor = std::move(factor_);

  if (metrics_on) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add("multifrontal.assembly.seconds", trace.assembly_time);
    metrics.add("multifrontal.factorize.seconds", trace.total_time);
    metrics.add("multifrontal.supernodes", static_cast<double>(nsup_));
    if (setup_.plan != nullptr) {
      metrics.add("batch.planned",
                  static_cast<double>(setup_.plan->batches.size()));
    }
    metrics.gauge_max("multifrontal.stack_arena.peak_entries",
                      static_cast<double>(arena_peak_entries));
    metrics.gauge_max("multifrontal.stack_arena.peak_bytes",
                      static_cast<double>(arena_peak_entries) * sizeof(double));
    if (result.faults_survived > 0) {
      metrics.add("fault.run.survived",
                  static_cast<double>(result.faults_survived));
    }
  }
  return result;
}

}  // namespace mfgpu
