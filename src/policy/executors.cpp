#include "policy/executors.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "dense/blas.hpp"
#include "dense/potrf.hpp"
#include "gpusim/cost_class.hpp"
#include "obs/metrics.hpp"
#include "policy/p4_gpu_potrf.hpp"

namespace mfgpu {
namespace {

/// Salt of a batched dispatch's own fault scope. Front scopes are global
/// column indices, which never reach the top bit.
constexpr std::uint64_t kDispatchScopeSalt = 0x8000'0000'0000'0000ULL;

std::int64_t float_bytes(index_t rows, index_t cols) {
  return static_cast<std::int64_t>(rows) * static_cast<std::int64_t>(cols) *
         static_cast<std::int64_t>(sizeof(float));
}

/// Download target that leaves the data on the device: a null-data view of
/// the block's shape. The copy is priced in full and the host then reads
/// the device block in place (Device::copy_from_device_*).
MatrixView<double> in_place(index_t rows, index_t cols) {
  return MatrixView<double>(nullptr, rows, cols, std::max<index_t>(rows, 1));
}

/// In-place download target of a whole device-computed update product.
MatrixView<double> read_in_place(const DeviceMatrix& d) {
  return in_place(d.rows(), d.cols());
}

/// Finite check over the block's valid entries; lower_only limits the scan
/// to the lower triangle (L1 and U carry garbage above the diagonal).
template <typename T>
bool block_finite(MatrixView<const T> v, bool lower_only) {
  for (index_t j = 0; j < v.cols(); ++j) {
    for (index_t i = lower_only ? j : 0; i < v.rows(); ++i) {
      if (!std::isfinite(v(i, j))) return false;
    }
  }
  return true;
}

/// Charges one detected device fault to the record of the call it hit —
/// the profiler's fault audit reads these fields back from the trace.
void charge_fault(FuCallRecord& record, FaultKind kind, double wasted) {
  ++record.fault_kinds[static_cast<std::size_t>(kind)];
  record.fault_wasted_seconds += wasted;
}

MatrixView<const double> const_view(const MatrixView<double>& v) {
  return MatrixView<const double>(v.data(), v.rows(), v.cols(), v.ld());
}

/// Validate the panels a GPU policy returned: corruption shows up as
/// non-finite entries (transfer poisoning, NaN propagation through kernels).
bool front_finite(const FrontBlocks& f) {
  if (!block_finite(const_view(f.l1), /*lower_only=*/true)) return false;
  if (f.m > 0) {
    if (!block_finite(const_view(f.l2), /*lower_only=*/false)) return false;
    if (!block_finite(const_view(f.u), /*lower_only=*/true)) return false;
  }
  return true;
}

void append_block(const MatrixView<const double>& v, std::vector<double>& buf) {
  for (index_t j = 0; j < v.cols(); ++j) {
    for (index_t i = 0; i < v.rows(); ++i) buf.push_back(v(i, j));
  }
}

std::size_t restore_block(const MatrixView<double>& v,
                          const std::vector<double>& buf, std::size_t at) {
  for (index_t j = 0; j < v.cols(); ++j) {
    for (index_t i = 0; i < v.rows(); ++i) v(i, j) = buf[at++];
  }
  return at;
}

/// Core of the aggregated small-front path (Policy::Batched), shared by
/// DispatchExecutor::execute_batch and PolicyTimer::time_batched. The whole
/// group runs as ONE simulated dispatch: three shared device slabs (each
/// member a row band), one coalesced upload (every member's L1 + L2),
/// batched potrf/trsm/syrk launches, one coalesced download (factored L1,
/// L2, and the update product), read in place on the slabs. The simulated
/// kernels are priced FP64 batched launches
/// (gpublas.hpp): the authoritative member math runs here on the host in
/// double — exactly the per-front P1 kernels, in ascending member order —
/// so the factor is bitwise identical to the per-front host path no matter
/// how the fronts were grouped. Members that fault are marked in
/// `skip`/`faulted` with their time still charged and their panels left
/// untouched; the caller degrades them per-front. Outcome records carry
/// each member's amortized share of the dispatch (marginal kernel time +
/// 1/B of the launch latency).
std::vector<FuOutcome> run_batched_dispatch(std::span<FrontBlocks> fronts,
                                            FactorContext& ctx,
                                            std::span<char> skip,
                                            std::vector<BatchFault>& faulted) {
  const std::size_t n = fronts.size();
  Device& dev = *ctx.device;
  SimClock& clock = ctx.host_clock;
  HostExec host = ctx.host_exec();
  GpuExec compute = ctx.gpu_exec(dev.compute_stream());
  FaultInjector& injector = dev.fault_injector();
  const ProcessorModel& model = dev.model();

  std::vector<FuOutcome> outcomes(n);
  std::vector<std::uint64_t> scopes(n), ops(n, 0);
  std::vector<char> charged(n, 0);
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scopes[i] = static_cast<std::uint64_t>(fronts[i].global_col);
    if (skip[i] == 0) {
      charged[i] = 1;
      ++active;
    }
  }
  if (active == 0) return outcomes;

  // Three shared device slabs per dispatch (batched-BLAS workspace style):
  // each member owns a row band at a fixed offset. The three pool slots are
  // high-water reused across dispatches, so slab growth is charged like any
  // other pool warm-up instead of 3B per-member cudaMalloc latencies. Alloc
  // faults sample under a dispatch scope (the first active member's column,
  // salted apart from every front scope), so no member's own op counter
  // moves: a front's schedule stays independent of whether it leads its
  // batch. An injected OOM or death here aborts the whole dispatch.
  std::vector<index_t> l1_off(n, 0), l2_off(n, 0);
  index_t l1_rows = 0, l2_rows = 0, slab_k = 0, slab_m = 0;
  std::int64_t h2d_bytes = 0, d2h_bytes = 0;
  std::size_t first_active = n;
  for (std::size_t i = 0; i < n; ++i) {
    const FrontBlocks& f = fronts[i];
    l1_off[i] = l1_rows;
    l2_off[i] = l2_rows;
    l1_rows += f.k;
    l2_rows += f.m;
    slab_k = std::max(slab_k, f.k);
    slab_m = std::max(slab_m, f.m);
    if (skip[i] != 0) continue;
    if (first_active == n) first_active = i;
    h2d_bytes += float_bytes(f.k, f.k) + float_bytes(f.m, f.k);
    d2h_bytes += float_bytes(f.k, f.k) + float_bytes(f.m, f.k) +
                 float_bytes(f.m, f.m);
  }
  injector.begin_scope(scopes[first_active] ^ kDispatchScopeSalt);
  DeviceMatrix l1_slab = dev.allocate(l1_rows, slab_k, "batch.l1", clock);
  DeviceMatrix l2_slab = dev.allocate(l2_rows, slab_k, "batch.l2", clock);
  DeviceMatrix prod_slab = dev.allocate(l2_rows, slab_m, "batch.prod", clock);
  // The batched syrk below is priced, not computed, so nothing else defines
  // the product bands the download validates.
  if (dev.numeric()) {
    std::fill_n(prod_slab.data.data(), l2_rows * slab_m, 0.0f);
  }

  // One pinned staging slab per direction for the whole batch. Growing it
  // is history-dependent (like pool warm-up), so injection is suppressed —
  // it must not shift any member's per-front fault schedule.
  double t_copy_total = 0.0;
  {
    FaultSuppressionGuard no_faults(&injector);
    t_copy_total += dev.acquire_pinned("batch.h2d", h2d_bytes, clock);
    t_copy_total += dev.acquire_pinned("batch.d2h", d2h_bytes, clock);
  }

  // ONE coalesced upload: each member's L1 then L2, member-major. Each item
  // consumes exactly one fault op, so the per-item op indices are knowable
  // up front; the member counters resume from the written-back values.
  {
    std::vector<Device::H2dCopy> up;
    std::vector<std::uint64_t> item_scopes, item_ops;
    std::vector<char> item_skip;
    up.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const FrontBlocks& f = fronts[i];
      up.push_back(Device::H2dCopy{const_view(f.l1), &l1_slab, l1_off[i], 0});
      up.push_back(Device::H2dCopy{const_view(f.l2), &l2_slab, l2_off[i], 0});
      item_scopes.insert(item_scopes.end(), {scopes[i], scopes[i]});
      item_ops.insert(item_ops.end(), {ops[i], ops[i] + 1});
      item_skip.insert(item_skip.end(), {skip[i], skip[i]});
    }
    t_copy_total += dev.copy_to_device_async_batched(
        up, item_scopes, item_ops, item_skip, dev.h2d_stream(), clock);
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i] == 0) ops[i] = item_ops[2 * i + 1];
    }
  }

  // Aggregated kernels: one launch each, per-member flop time.
  std::vector<DevBlock> l1_blocks(n), l2_blocks(n), prod_blocks(n);
  std::vector<index_t> col_offsets(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (skip[i] != 0) continue;
    const FrontBlocks& f = fronts[i];
    l1_blocks[i] = dev_block(l1_slab, l1_off[i], 0, f.k, f.k);
    l2_blocks[i] = dev_block(l2_slab, l2_off[i], 0, f.m, f.k);
    prod_blocks[i] = dev_block(prod_slab, l2_off[i], 0, f.m, f.m);
    col_offsets[i] = f.global_col;
  }
  gpu_potrf_batched(compute, l1_blocks, col_offsets, scopes, ops, skip,
                    faulted);
  gpu_trsm_batched(compute, l1_blocks, l2_blocks, scopes, ops, skip, faulted);
  gpu_syrk_batched(compute, 1.0f, l2_blocks, prod_blocks, scopes, ops, skip,
                   faulted);

  // ONE coalesced download: factored L1, solved L2, and the product. The
  // batched device kernels are priced, not computed (gpublas.hpp), so the
  // downloads only serve transfer validation: each lands in place (a
  // null-data target), and an injected corruption poisons the member's
  // slab band.
  {
    std::vector<Device::D2hCopy> down;
    std::vector<std::uint64_t> item_scopes, item_ops;
    std::vector<char> item_skip;
    down.reserve(3 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const index_t m = fronts[i].m;
      const index_t k = fronts[i].k;
      down.push_back(Device::D2hCopy{&l1_slab, l1_off[i], 0,
                                     in_place(k, k)});
      down.push_back(Device::D2hCopy{&l2_slab, l2_off[i], 0,
                                     in_place(m, k)});
      down.push_back(Device::D2hCopy{&prod_slab, l2_off[i], 0,
                                     in_place(m, m)});
      item_scopes.insert(item_scopes.end(),
                         {scopes[i], scopes[i], scopes[i]});
      item_ops.insert(item_ops.end(), {ops[i], ops[i] + 1, ops[i] + 2});
      item_skip.insert(item_skip.end(), {skip[i], skip[i], skip[i]});
    }
    t_copy_total += dev.copy_from_device_async_batched(
        down, item_scopes, item_ops, item_skip, dev.d2h_stream(), clock);
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i] == 0) ops[i] = item_ops[3 * i + 2];
    }
  }
  dev.synchronize_stream(dev.d2h_stream(), clock);

  // Validate the downloads: injected transfer corruption (either
  // direction) ends up as a non-finite entry in the member's slab bands.
  // The member's panels are untouched — mark it faulted and let the caller
  // re-run it per-front.
  if (dev.numeric()) {
    auto band_finite = [](const DeviceMatrix& slab, index_t row0,
                          index_t rows, index_t cols) {
      return block_finite<float>(slab.data.block(row0, 0, rows, cols),
                          /*lower_only=*/false);
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i] != 0) continue;
      const FrontBlocks& f = fronts[i];
      if (!band_finite(l1_slab, l1_off[i], f.k, f.k) ||
          !band_finite(l2_slab, l2_off[i], f.m, f.k) ||
          !band_finite(prod_slab, l2_off[i], f.m, f.m)) {
        skip[i] = 1;
        faulted.push_back(BatchFault{i, FaultKind::TransferCorruption});
      }
    }
  }

  // The authoritative member math, ascending member order (the
  // deterministic reduction order): the same double-precision kernels the
  // per-front host path (P1) runs, so grouping never changes a bit of the
  // factor — only the charged time comes from the dispatch above. The host
  // still pays the update-apply staging cost, like every other policy.
  std::vector<double> t_apply(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (skip[i] != 0) continue;
    const FrontBlocks& f = fronts[i];
    if (f.m > 0) {
      t_apply[i] = host_assembly_cost(
          host,
          0.5 * static_cast<double>(f.m) * static_cast<double>(f.m + 1));
    }
    if (!ctx.numeric) continue;
    potrf<double>(f.l1, 64, f.global_col);
    if (f.m > 0) {
      trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                   1.0, const_view(f.l1), f.l2);
      syrk_lower<double>(-1.0, const_view(f.l2), 1.0, f.u);
    }
  }

  // Per-member amortized shares: marginal kernel time (at the member's own
  // tile-shape rate) plus 1/B of each launch's fixed overhead (latency +
  // utilization ramp); copies pro-rated by bytes. Faulted members keep
  // their share (it is the time the fault wasted).
  const double nb = static_cast<double>(active);
  const double total_bytes = static_cast<double>(h2d_bytes + d2h_bytes);
  const double ready_at = clock.now();
  for (std::size_t i = 0; i < n; ++i) {
    if (charged[i] == 0) continue;
    const FrontBlocks& f = fronts[i];
    FuCallRecord& r = outcomes[i].record;
    r.snode = f.snode;
    r.m = f.m;
    r.k = f.k;
    r.policy = static_cast<int>(Policy::Batched);
    r.batch = static_cast<int>(active);
    const double kd = static_cast<double>(f.k);
    const double md = static_cast<double>(f.m);
    r.t_potrf =
        model.potrf.marginal_time(static_cast<double>(potrf_ops(f.k)), kd) +
        model.potrf.batch_overhead() / nb;
    r.t_trsm = model.trsm.marginal_time(
                   static_cast<double>(trsm_ops(f.m, f.k)), std::min(md, kd)) +
               model.trsm.batch_overhead() / nb;
    r.t_syrk = model.syrk.marginal_time(
                   static_cast<double>(syrk_ops(f.m, f.k)), std::min(md, kd)) +
               model.syrk.batch_overhead() / nb + t_apply[i];
    const double member_bytes = static_cast<double>(
        2 * (float_bytes(f.k, f.k) + float_bytes(f.m, f.k)) +
        float_bytes(f.m, f.m));
    r.t_copy = total_bytes > 0.0
                   ? t_copy_total * member_bytes / total_bytes
                   : 0.0;
    r.t_total = r.t_potrf + r.t_trsm + r.t_syrk + r.t_copy;
    outcomes[i].update_ready_at = ready_at;
  }
  return outcomes;
}

}  // namespace

PolicyExecutor::PolicyExecutor(Policy policy, ExecutorOptions options)
    : policy_(policy), options_(options), name_(policy_name(policy)) {}

void PolicyExecutor::prepare(index_t max_m, index_t max_k,
                             FactorContext& ctx) {
  // Record the symbolic maximum; the pools are sized lazily at this
  // policy's first actual use, so a dispatcher that never routes a call
  // here pays nothing.
  (void)ctx;
  prepared_m_ = max_m;
  prepared_k_ = max_k;
  prepared_applied_ = false;
}

void PolicyExecutor::ensure_prepared(FactorContext& ctx) {
  if (prepared_applied_ || prepared_m_ < 0 || ctx.device == nullptr ||
      policy_ == Policy::P1) {
    return;
  }
  prepared_applied_ = true;
  Device& dev = *ctx.device;
  // Pool warm-up happens on a worker's first use of this policy — a
  // history-dependent moment. Suppress injection so it neither faults nor
  // shifts the per-front fault schedule (see fault_injector.hpp).
  FaultSuppressionGuard no_faults(&dev.fault_injector());
  SimClock& clock = ctx.host_clock;
  const index_t m = prepared_m_, k = prepared_k_;
  switch (policy_) {
    case Policy::P1:
    case Policy::Batched:
      break;
    case Policy::P2:
      dev.reserve(m, k, "p2.l2", clock);
      dev.reserve(m, m, "p2.prod", clock);
      dev.acquire_pinned("p2.l2", float_bytes(m, k), clock);
      dev.acquire_pinned("p2.prod", float_bytes(m, m), clock);
      break;
    case Policy::P3:
      dev.reserve(k, k, "p3.l1", clock);
      dev.reserve(m, k, "p3.l2", clock);
      dev.reserve(m, m, "p3.prod", clock);
      dev.acquire_pinned("p3.l1", float_bytes(k, k), clock);
      dev.acquire_pinned("p3.l2", float_bytes(m, k), clock);
      dev.acquire_pinned("p3.prod", float_bytes(m, m), clock);
      break;
    case Policy::P4:
      dev.reserve(k + m, k, "p4.panel", clock);
      dev.reserve(m, m, "p4.prod", clock);
      dev.acquire_pinned("p4.panel", float_bytes(k + m, k), clock);
      dev.acquire_pinned("p4.prod", float_bytes(m, m), clock);
      break;
  }
}

FuOutcome PolicyExecutor::execute(FrontBlocks front, FactorContext& ctx) {
  MFGPU_CHECK(front.k > 0, "PolicyExecutor: empty pivot block");
  MFGPU_CHECK(policy_ == Policy::P1 || ctx.device != nullptr,
              "PolicyExecutor: GPU policy requires a device");
  MFGPU_CHECK(ctx.device == nullptr || ctx.device->numeric() == ctx.numeric,
              "PolicyExecutor: context and device must agree on numeric vs "
              "dry-run mode");
  ensure_prepared(ctx);
  switch (policy_) {
    case Policy::P1: return run_p1(front, ctx);
    case Policy::P2: return run_p2(front, ctx);
    case Policy::P3: return run_p3(front, ctx);
    case Policy::P4: return run_p4(front, ctx);
    case Policy::Batched: break;
  }
  throw InvalidArgumentError("PolicyExecutor: invalid policy");
}

FuOutcome PolicyExecutor::run_p1(const FrontBlocks& f, FactorContext& ctx) {
  HostExec host = ctx.host_exec();
  FuOutcome out;
  out.record.m = f.m;
  out.record.k = f.k;
  out.record.policy = 1;
  const double t0 = ctx.host_clock.now();

  out.record.t_potrf = host_potrf(host, f.l1, f.global_col);
  if (f.m > 0) {
    out.record.t_trsm = host_trsm(host, f.l1, f.l2);
    out.record.t_syrk = host_syrk(host, -1.0, f.l2, f.u);
  }
  out.record.t_total = ctx.host_clock.now() - t0;
  out.update_ready_at = ctx.host_clock.now();
  return out;
}

FuOutcome PolicyExecutor::run_p2(const FrontBlocks& f, FactorContext& ctx) {
  HostExec host = ctx.host_exec();
  Device& dev = *ctx.device;
  SimClock& clock = ctx.host_clock;
  FuOutcome out;
  out.record.m = f.m;
  out.record.k = f.k;
  out.record.policy = 2;
  const double t0 = clock.now();

  out.record.t_potrf = host_potrf(host, f.l1, f.global_col);
  if (f.m > 0) {
    out.record.t_trsm = host_trsm(host, f.l1, f.l2);

    DeviceMatrix l2_d = dev.allocate(f.m, f.k, "p2.l2", clock);
    DeviceMatrix prod_d = dev.allocate(f.m, f.m, "p2.prod", clock);
    if (options_.overlapped_copies) {
      out.record.t_copy +=
          dev.acquire_pinned("p2.l2", float_bytes(f.m, f.k), clock);
      out.record.t_copy +=
          dev.acquire_pinned("p2.prod", float_bytes(f.m, f.m), clock);
      out.record.t_copy +=
          dev.copy_to_device_async(f.l2, l2_d, 0, 0, dev.h2d_stream(), clock);
      out.record.t_syrk = gpu_syrk(ctx.gpu_exec(dev.compute_stream()), 1.0f,
                                   dev_whole(l2_d), dev_whole(prod_d), 0.0f);
      out.record.t_copy += dev.copy_from_device_async(
          prod_d, 0, 0, read_in_place(prod_d), dev.d2h_stream(), clock);
      dev.synchronize_stream(dev.d2h_stream(), clock);
    } else {
      out.record.t_copy += dev.copy_to_device_sync(f.l2, l2_d, 0, 0, clock);
      out.record.t_syrk = gpu_syrk(ctx.gpu_exec(dev.compute_stream()), 1.0f,
                                   dev_whole(l2_d), dev_whole(prod_d), 0.0f);
      out.record.t_copy +=
          dev.copy_from_device_sync(prod_d, 0, 0, read_in_place(prod_d), clock);
    }
    out.record.t_syrk += host_apply_update(host, prod_d.data, f.u);
  }
  out.record.t_total = clock.now() - t0;
  out.update_ready_at = clock.now();
  return out;
}

FuOutcome PolicyExecutor::run_p3(const FrontBlocks& f, FactorContext& ctx) {
  HostExec host = ctx.host_exec();
  Device& dev = *ctx.device;
  SimClock& clock = ctx.host_clock;
  FuOutcome out;
  out.record.m = f.m;
  out.record.k = f.k;
  out.record.policy = 3;
  const double t0 = clock.now();

  if (f.m == 0) {
    // Nothing to offload: P3 degenerates to the host potrf.
    out.record.t_potrf = host_potrf(host, f.l1, f.global_col);
    out.record.t_total = clock.now() - t0;
    out.update_ready_at = clock.now();
    return out;
  }

  DeviceMatrix l1_d = dev.allocate(f.k, f.k, "p3.l1", clock);
  DeviceMatrix l2_d = dev.allocate(f.m, f.k, "p3.l2", clock);
  DeviceMatrix prod_d = dev.allocate(f.m, f.m, "p3.prod", clock);
  GpuExec compute = ctx.gpu_exec(dev.compute_stream());

  if (options_.overlapped_copies) {
    out.record.t_copy +=
        dev.acquire_pinned("p3.l1", float_bytes(f.k, f.k), clock);
    out.record.t_copy +=
        dev.acquire_pinned("p3.l2", float_bytes(f.m, f.k), clock);
    out.record.t_copy +=
        dev.acquire_pinned("p3.prod", float_bytes(f.m, f.m), clock);
    // Ship the unsolved L2 while the host factors the pivot block (§V-A2).
    out.record.t_copy +=
        dev.copy_to_device_async(f.l2, l2_d, 0, 0, dev.h2d_stream(), clock);
    out.record.t_potrf = host_potrf(host, f.l1, f.global_col);
    out.record.t_copy +=
        dev.copy_to_device_async(f.l1, l1_d, 0, 0, dev.h2d_stream(), clock);
    out.record.t_trsm = gpu_trsm(compute, dev_whole(l1_d), dev_whole(l2_d));
    // Solved L2 streams back while the syrk runs.
    out.record.t_copy += dev.copy_from_device_async(l2_d, 0, 0, f.l2,
                                                    dev.d2h_stream(), clock);
    out.record.t_syrk =
        gpu_syrk(compute, 1.0f, dev_whole(l2_d), dev_whole(prod_d), 0.0f);
    out.record.t_copy += dev.copy_from_device_async(
        prod_d, 0, 0, read_in_place(prod_d), dev.d2h_stream(), clock);
    dev.synchronize_stream(dev.d2h_stream(), clock);
  } else {
    // Basic implementation (paper Section IV): pageable synchronous copies.
    out.record.t_potrf = host_potrf(host, f.l1, f.global_col);
    out.record.t_copy += dev.copy_to_device_sync(f.l1, l1_d, 0, 0, clock);
    out.record.t_copy += dev.copy_to_device_sync(f.l2, l2_d, 0, 0, clock);
    out.record.t_trsm = gpu_trsm(compute, dev_whole(l1_d), dev_whole(l2_d));
    out.record.t_copy += dev.copy_from_device_sync(l2_d, 0, 0, f.l2, clock);
    out.record.t_syrk =
        gpu_syrk(compute, 1.0f, dev_whole(l2_d), dev_whole(prod_d), 0.0f);
    out.record.t_copy +=
        dev.copy_from_device_sync(prod_d, 0, 0, read_in_place(prod_d), clock);
  }
  out.record.t_syrk += host_apply_update(host, prod_d.data, f.u);
  out.record.t_total = clock.now() - t0;
  out.update_ready_at = clock.now();
  return out;
}

FuOutcome PolicyExecutor::run_p4(const FrontBlocks& f, FactorContext& ctx) {
  HostExec host = ctx.host_exec();
  Device& dev = *ctx.device;
  SimClock& clock = ctx.host_clock;
  FuOutcome out;
  out.record.m = f.m;
  out.record.k = f.k;
  out.record.policy = 4;
  const double t0 = clock.now();

  DeviceMatrix panel_d = dev.allocate(f.k + f.m, f.k, "p4.panel", clock);
  DeviceMatrix prod_d =
      (f.m > 0) ? dev.allocate(f.m, f.m, "p4.prod", clock) : DeviceMatrix{};
  GpuExec compute = ctx.gpu_exec(dev.compute_stream());
  const index_t w = p4_auto_panel_width(f.k, f.m);
  const bool async = options_.overlapped_copies || options_.copy_optimized_p4;

  // Upload L1 and L2 into the combined panel.
  if (async) {
    out.record.t_copy +=
        dev.acquire_pinned("p4.panel", float_bytes(f.k + f.m, f.k), clock);
    if (f.m > 0) {
      out.record.t_copy +=
          dev.acquire_pinned("p4.prod", float_bytes(f.m, f.m), clock);
    }
    out.record.t_copy +=
        dev.copy_to_device_async(f.l1, panel_d, 0, 0, dev.h2d_stream(), clock);
    if (f.m > 0) {
      out.record.t_copy += dev.copy_to_device_async(f.l2, panel_d, f.k, 0,
                                                    dev.h2d_stream(), clock);
    }
  } else {
    out.record.t_copy += dev.copy_to_device_sync(f.l1, panel_d, 0, 0, clock);
    if (f.m > 0) {
      out.record.t_copy +=
          dev.copy_to_device_sync(f.l2, panel_d, f.k, 0, clock);
    }
  }

  const P4KernelTimes times =
      p4_factor_on_gpu(compute, panel_d, (f.m > 0) ? &prod_d : nullptr, f.m,
                       f.k, w, f.global_col);
  out.record.t_potrf = times.potrf;
  out.record.t_trsm = times.trsm + times.gemm;
  out.record.t_syrk = times.syrk;

  if (options_.copy_optimized_p4 && f.m > 0) {
    // Wait only for the update matrix; the factored panel streams back
    // behind it while the host proceeds to the next front.
    out.record.t_copy += dev.copy_from_device_async(
        prod_d, 0, 0, read_in_place(prod_d), dev.d2h_stream(), clock);
    const Event prod_done = dev.record(dev.d2h_stream());
    out.record.t_copy += dev.copy_from_device_async(panel_d, 0, 0, f.l1,
                                                    dev.d2h_stream(), clock);
    out.record.t_copy += dev.copy_from_device_async(panel_d, f.k, 0, f.l2,
                                                    dev.d2h_stream(), clock);
    {
      CostClassScope stall_cls(CostClass::Transfer);
      clock.advance_to(prod_done.time);
    }
    out.record.t_syrk += host_apply_update(host, prod_d.data, f.u);
    out.update_ready_at = clock.now();
  } else if (async) {
    out.record.t_copy += dev.copy_from_device_async(panel_d, 0, 0, f.l1,
                                                    dev.d2h_stream(), clock);
    if (f.m > 0) {
      out.record.t_copy += dev.copy_from_device_async(panel_d, f.k, 0, f.l2,
                                                      dev.d2h_stream(), clock);
      out.record.t_copy += dev.copy_from_device_async(
          prod_d, 0, 0, read_in_place(prod_d), dev.d2h_stream(), clock);
    }
    dev.synchronize_stream(dev.d2h_stream(), clock);
    if (f.m > 0) {
      out.record.t_syrk += host_apply_update(host, prod_d.data, f.u);
    }
    out.update_ready_at = clock.now();
  } else {
    out.record.t_copy += dev.copy_from_device_sync(panel_d, 0, 0, f.l1, clock);
    if (f.m > 0) {
      out.record.t_copy +=
          dev.copy_from_device_sync(panel_d, f.k, 0, f.l2, clock);
      out.record.t_copy +=
          dev.copy_from_device_sync(prod_d, 0, 0, read_in_place(prod_d), clock);
      out.record.t_syrk += host_apply_update(host, prod_d.data, f.u);
    }
    out.update_ready_at = clock.now();
  }
  out.record.t_total = clock.now() - t0;
  return out;
}

DispatchExecutor::DispatchExecutor(std::string name, Chooser chooser,
                                   ExecutorOptions options)
    : name_(std::move(name)), chooser_(std::move(chooser)) {
  for (int p = 1; p <= 4; ++p) {
    executors_[static_cast<std::size_t>(p - 1)] =
        std::make_unique<PolicyExecutor>(policy_from_index(p), options);
  }
}

void DispatchExecutor::prepare(index_t max_m, index_t max_k,
                               FactorContext& ctx) {
  for (auto& exec : executors_) exec->prepare(max_m, max_k, ctx);
}

FuOutcome DispatchExecutor::execute(FrontBlocks front, FactorContext& ctx) {
  Policy choice = chooser_(front.call());
  if (ctx.device == nullptr || choice == Policy::Batched) {
    // Batched is a dispatch-level aggregation, not a per-front execution
    // plan — a chooser returning it for a lone call degrades to P1.
    choice = Policy::P1;
  }
  const bool tolerant =
      ctx.device != nullptr && ctx.device->fault_injector().enabled();
  if (tolerant && ctx.device->fault_injector().dead()) {
    // The device died: CPU-only from here on.
    choice = Policy::P1;
  }
  if (obs::enabled()) {
    obs::MetricsRegistry::global().increment(
        "policy.selected.p" + std::to_string(static_cast<int>(choice)));
  }
  FuOutcome outcome =
      (tolerant && choice != Policy::P1)
          ? execute_tolerant(front, ctx, choice)
          : executors_[static_cast<std::size_t>(static_cast<int>(choice) - 1)]
                ->execute(front, ctx);
  outcome.record.dispatched = true;
  if (predictor_) {
    outcome.record.predicted_seconds = predictor_(front.call(), choice);
  }
  return outcome;
}

std::vector<FuOutcome> DispatchExecutor::batch_singles(
    std::span<FrontBlocks> fronts, FactorContext& ctx) {
  std::vector<FuOutcome> outcomes;
  outcomes.reserve(fronts.size());
  for (FrontBlocks& front : fronts) outcomes.push_back(execute(front, ctx));
  return outcomes;
}

std::vector<FuOutcome> DispatchExecutor::execute_batch(
    std::span<FrontBlocks> fronts, FactorContext& ctx) {
  if (fronts.empty()) return {};
  // Per-front loop when there is nothing to aggregate on: no device, or the
  // device died (CPU-only).
  if (ctx.device == nullptr) return batch_singles(fronts, ctx);
  const bool tolerant = ctx.device->fault_injector().enabled();
  if (tolerant && ctx.device->fault_injector().dead()) {
    return batch_singles(fronts, ctx);
  }

  const std::size_t n = fronts.size();
  const bool audited = obs::enabled();
  const bool numeric = ctx.numeric;
  if (tolerant && numeric) {
    if (batch_snapshots_.size() < n) batch_snapshots_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      snapshot_front(fronts[i], batch_snapshots_[i]);
    }
  }

  std::vector<char> skip(n, 0);
  std::vector<BatchFault> faulted;
  std::vector<FuOutcome> outcomes;
  const double t0 = ctx.host_clock.now();
  bool batch_failed = false;
  FaultKind batch_kind = FaultKind::None;
  try {
    outcomes = run_batched_dispatch(fronts, ctx, skip, faulted);
  } catch (const DeviceFaultError& e) {
    batch_failed = true;
    batch_kind =
        e.sticky() ? FaultKind::DeviceDeath : FaultKind::TransientKernel;
  } catch (const DeviceOutOfMemoryError&) {
    batch_failed = true;
    batch_kind = FaultKind::SpuriousOom;
  }
  if (batch_failed) {
    // The whole dispatch is lost (device death mid-batch, allocator
    // failure): drain, restore every member, and degrade them all to the
    // per-front path — which handles a dead injector by going CPU-only.
    ctx.device->synchronize(ctx.host_clock);
    const double wasted = ctx.host_clock.now() - t0;
    if (tolerant && numeric) {
      for (std::size_t i = 0; i < n; ++i) {
        restore_front(fronts[i], batch_snapshots_[i]);
      }
    }
    ++fault_count_;
    if (audited) {
      auto& metrics = obs::MetricsRegistry::global();
      metrics.increment(std::string("fault.detected.") +
                        fault_kind_name(batch_kind));
      metrics.add("fault.wasted_seconds", wasted);
      metrics.increment("batch.aborts");
    }
    // The lost dispatch is charged to the first member's record.
    std::vector<FuOutcome> singles = batch_singles(fronts, ctx);
    charge_fault(singles[0].record, batch_kind, wasted);
    return singles;
  }

  // (Transfer corruption is validated inside run_batched_dispatch against
  // the downloaded slab bands; corrupted members arrive in `faulted` with
  // their panels untouched.)

  if (audited) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.increment("batch.dispatches");
    metrics.add("batch.fronts.dispatched", static_cast<double>(n));
    metrics.gauge_max("batch.width.max", static_cast<double>(n));
    metrics.add("policy.selected.batched",
                static_cast<double>(n - faulted.size()));
  }

  // Degrade faulted members individually: restore and re-run them through
  // the per-front path. The rest of the batch is untouched.
  for (const BatchFault& bf : faulted) {
    const std::size_t i = bf.index;
    const double wasted = outcomes[i].record.t_total;
    ++fault_count_;
    if (audited) {
      auto& metrics = obs::MetricsRegistry::global();
      metrics.increment(std::string("fault.detected.") +
                        fault_kind_name(bf.kind));
      metrics.add("fault.wasted_seconds", wasted);
      metrics.increment("batch.faulted");
    }
    if (tolerant && numeric) restore_front(fronts[i], batch_snapshots_[i]);
    const int wasted_faults = outcomes[i].record.faults;
    outcomes[i] = execute(fronts[i], ctx);
    outcomes[i].record.faults += wasted_faults + 1;
    charge_fault(outcomes[i].record, bf.kind, wasted);
  }

  for (FuOutcome& outcome : outcomes) outcome.record.dispatched = true;
  return outcomes;
}

void DispatchExecutor::snapshot_front(const FrontBlocks& front,
                                      std::vector<double>& buf) {
  buf.clear();
  append_block(const_view(front.l1), buf);
  if (front.m > 0) {
    append_block(const_view(front.l2), buf);
    append_block(const_view(front.u), buf);
  }
}

void DispatchExecutor::restore_front(const FrontBlocks& front,
                                     const std::vector<double>& buf) const {
  std::size_t at = restore_block(front.l1, buf, 0);
  if (front.m > 0) {
    at = restore_block(front.l2, buf, at);
    restore_block(front.u, buf, at);
  }
}

FuOutcome DispatchExecutor::execute_tolerant(const FrontBlocks& front,
                                             FactorContext& ctx,
                                             Policy choice) {
  Device& dev = *ctx.device;
  FaultInjector& injector = dev.fault_injector();
  // Front-scoped sampling: the fault schedule depends on the front's
  // identity, not on which worker or in what order it executes.
  injector.begin_scope(static_cast<std::uint64_t>(front.global_col));
  const bool numeric = ctx.numeric;
  if (numeric) snapshot_front(front, snapshot_);

  const bool audited = obs::enabled();
  const double t0 = ctx.host_clock.now();
  const auto exec_index = [](Policy p) {
    return static_cast<std::size_t>(static_cast<int>(p) - 1);
  };
  // The faults survived so far, moved onto the record that finally stands.
  FuCallRecord charged;
  const auto finish = [&](FuOutcome& out) {
    out.record.faults = charged.faults;
    out.record.fault_kinds = charged.fault_kinds;
    out.record.fault_wasted_seconds = charged.fault_wasted_seconds;
    out.record.t_total = ctx.host_clock.now() - t0;
  };
  const int max_device_attempts = 2;  // first try + one on-device retry
  for (int attempt = 0; attempt < max_device_attempts; ++attempt) {
    const double attempt_t0 = ctx.host_clock.now();
    FaultKind observed = FaultKind::None;
    bool retriable = true;
    try {
      FuOutcome out =
          executors_[exec_index(choice)]->execute(front, ctx);
      // Corruption can slip through without an exception — validate the
      // returned panels before trusting them.
      if (!numeric || front_finite(front)) {
        finish(out);
        return out;
      }
      observed = FaultKind::TransferCorruption;
    } catch (const NotPositiveDefiniteError& e) {
      // A NaN pivot is injected corruption reaching the panel
      // factorization; a finite non-positive pivot is a genuinely
      // indefinite matrix and must propagate.
      if (!std::isnan(e.pivot())) throw;
      observed = FaultKind::TransferCorruption;
    } catch (const DeviceFaultError& e) {
      observed = e.sticky() ? FaultKind::DeviceDeath
                            : FaultKind::TransientKernel;
      retriable = !e.sticky();
    } catch (const DeviceOutOfMemoryError&) {
      observed = FaultKind::SpuriousOom;
    }

    // The attempt faulted. Drain in-flight device work (charging the
    // wasted async time to the virtual clock) and restore the front.
    dev.synchronize(ctx.host_clock);
    const double wasted = ctx.host_clock.now() - attempt_t0;
    if (numeric) restore_front(front, snapshot_);
    ++charged.faults;
    ++fault_count_;
    const bool will_retry = retriable && !injector.dead() &&
                            attempt + 1 < max_device_attempts;
    if (audited) {
      auto& metrics = obs::MetricsRegistry::global();
      metrics.increment(std::string("fault.detected.") +
                        fault_kind_name(observed));
      metrics.add("fault.wasted_seconds", wasted);
      metrics.increment(will_retry ? "fault.retries" : "fault.fallbacks");
    }
    charge_fault(charged, observed, wasted);
    if (!will_retry) break;
  }

  // On-device attempts exhausted: redo the whole front on the host P1
  // path. The virtual clock already carries the wasted GPU time; the CPU
  // redo now adds its full cost on top.
  FuOutcome out =
      executors_[exec_index(Policy::P1)]->execute(front, ctx);
  finish(out);
  out.record.fell_back = true;
  out.update_ready_at = std::max(out.update_ready_at, ctx.host_clock.now());
  return out;
}

PolicyTimer::PolicyTimer(ExecutorOptions options) {
  Device::Options dry;
  dry.numeric = false;
  device_ = std::make_unique<Device>(dry);
  ctx_.device = device_.get();
  ctx_.numeric = false;
  for (int p = 1; p <= 4; ++p) {
    executors_[static_cast<std::size_t>(p - 1)] =
        std::make_unique<PolicyExecutor>(policy_from_index(p), options);
  }
  warm_up(10000, 10000);
}

void PolicyTimer::warm_up(index_t m, index_t k) {
  const FrontBlocks shape = make_shape_blocks(m, k);
  for (int p = 1; p <= 4; ++p) {
    (void)time(policy_from_index(p), shape.call());
  }
}

void PolicyTimer::rewind() {
  ctx_.host_clock.reset();
  device_->rewind();
}

FuCallRecord PolicyTimer::record(Policy policy, const FuCall& call) {
  // Time the call in isolation, from zero: transfers left in flight by the
  // previous measurement (e.g. the copy-optimized P4's deferred panel copy)
  // are dropped, and no absolute clock reading enters the price.
  rewind();
  FrontBlocks blocks = make_shape_blocks(call);
  auto& exec =
      *executors_[static_cast<std::size_t>(static_cast<int>(policy) - 1)];
  const FuOutcome out = exec.execute(blocks, ctx_);
  return out.record;
}

double PolicyTimer::time(Policy policy, const FuCall& call) {
  return record(policy, call).t_total;
}

Policy PolicyTimer::best_policy(const FuCall& call) {
  Policy best = Policy::P1;
  double best_time = time(Policy::P1, call);
  for (Policy p : {Policy::P2, Policy::P3, Policy::P4}) {
    const double t = time(p, call);
    if (t < best_time) {
      best_time = t;
      best = p;
    }
  }
  return best;
}

double PolicyTimer::time_batched(const FuCall& call, int batch) {
  MFGPU_CHECK(batch >= 1, "time_batched: batch must be >= 1");
  const auto key = std::make_tuple(call.m, call.k, batch);
  if (const auto it = batched_cache_.find(key); it != batched_cache_.end()) {
    return it->second;
  }
  const std::size_t n = static_cast<std::size_t>(batch);
  std::vector<FrontBlocks> fronts;
  fronts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fronts.push_back(make_shape_blocks(call.m, call.k,
                                       static_cast<index_t>(i)));
  }
  std::vector<char> skip(n, 0);
  std::vector<BatchFault> faulted;
  double share = 0.0;
  // Two passes: the first sizes the batch.* pool slots (high-water
  // allocation would otherwise charge the growth to this measurement),
  // the second measures steady state.
  for (int pass = 0; pass < 2; ++pass) {
    rewind();
    std::fill(skip.begin(), skip.end(), 0);
    faulted.clear();
    (void)run_batched_dispatch(std::span<FrontBlocks>(fronts), ctx_, skip,
                               faulted);
    device_->synchronize(ctx_.host_clock);
    share = ctx_.host_clock.now() / static_cast<double>(batch);
  }
  batched_cache_.emplace(key, share);
  return share;
}

}  // namespace mfgpu
