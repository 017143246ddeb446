#include "gpusim/gpublas.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "dense/potrf.hpp"
#include "gpusim/cost_class.hpp"
#include "obs/metrics.hpp"

namespace mfgpu {
namespace {

/// Per-kernel-class accounting: flops executed, simulated seconds charged,
/// and call counts, keyed as kernel.<prefix>.{flops,seconds,calls}.
void count_kernel(const char* prefix, double ops, double duration) {
  if (!obs::enabled()) return;
  auto& metrics = obs::MetricsRegistry::global();
  const std::string base = std::string("kernel.") + prefix;
  metrics.add(base + ".flops", ops);
  metrics.add(base + ".seconds", duration);
  metrics.increment(base + ".calls");
}

/// Enqueue a kernel: pay the host launch overhead, start when the stream is
/// free and every input matrix is available, mark outputs available at
/// completion.
void enqueue_kernel(const GpuExec& exec, double duration,
                    std::initializer_list<const DeviceMatrix*> inputs,
                    std::initializer_list<DeviceMatrix*> outputs) {
  {
    // The launch overhead is a TransferModel charge (driver cost).
    CostClassScope cls(CostClass::Transfer);
    exec.host->advance(exec.device->transfer().kernel_enqueue);
  }
  double earliest = exec.host->now();
  for (const DeviceMatrix* in : inputs) {
    earliest = std::max(earliest, in->available_at);
  }
  for (DeviceMatrix* out : outputs) {
    earliest = std::max(earliest, out->available_at);
  }
  const double done = exec.stream->enqueue(earliest, duration);
  if (ClockSink* sink = exec.host->sink()) {
    CostClassScope cls(CostClass::Gpu);
    sink->on_enqueue(exec.device->stream_index(*exec.stream), earliest,
                     duration, done);
  }
  for (DeviceMatrix* out : outputs) out->available_at = done;
}

/// Sample the injector for one kernel launch. A faulted launch still charges
/// its full enqueue + execution time (the wasted GPU time the fallback path
/// pays for) but skips the numeric work and throws.
void check_kernel_fault(const char* kernel, const GpuExec& exec, double ops,
                        double duration,
                        std::initializer_list<const DeviceMatrix*> inputs,
                        std::initializer_list<DeviceMatrix*> outputs) {
  const FaultKind fault =
      exec.device->fault_injector().sample(FaultSite::Kernel);
  if (fault == FaultKind::None) return;
  enqueue_kernel(exec, duration, inputs, outputs);
  count_kernel(kernel, ops, duration);
  throw DeviceFaultError(
      std::string(kernel) + ": injected " + fault_kind_name(fault),
      /*sticky=*/fault == FaultKind::DeviceDeath);
}

/// enqueue_kernel over dynamically sized dependency lists (one aggregated
/// launch touching every member's blocks).
void enqueue_kernel_batched(const GpuExec& exec, double duration,
                            const std::vector<const DeviceMatrix*>& inputs,
                            const std::vector<DeviceMatrix*>& outputs) {
  {
    CostClassScope cls(CostClass::Transfer);
    exec.host->advance(exec.device->transfer().kernel_enqueue);
  }
  double earliest = exec.host->now();
  for (const DeviceMatrix* in : inputs) {
    earliest = std::max(earliest, in->available_at);
  }
  for (DeviceMatrix* out : outputs) {
    earliest = std::max(earliest, out->available_at);
  }
  const double done = exec.stream->enqueue(earliest, duration);
  if (ClockSink* sink = exec.host->sink()) {
    CostClassScope cls(CostClass::Gpu);
    sink->on_enqueue(exec.device->stream_index(*exec.stream), earliest,
                     duration, done);
  }
  for (DeviceMatrix* out : outputs) out->available_at = done;
}

/// Per-member fault sampling for one aggregated launch, each member under
/// its own resumed scope so the schedule is independent of batch
/// composition. Freshly faulted members are marked in `skip` and appended
/// to `faulted`; they stay `active` (their wasted device time is charged)
/// but run no numeric work.
struct BatchFaults {
  bool any = false;    ///< at least one member was live at entry
  bool death = false;  ///< some member drew DeviceDeath (throw after charge)
  std::vector<char> active;  ///< live at entry: charged by this launch
};

BatchFaults sample_batch_faults(FaultInjector& injector,
                                std::span<const std::uint64_t> scopes,
                                std::span<std::uint64_t> fault_ops,
                                std::span<char> skip,
                                std::vector<BatchFault>& faulted) {
  BatchFaults out;
  out.active.assign(scopes.size(), 0);
  for (std::size_t i = 0; i < scopes.size(); ++i) {
    if (skip[i] != 0) continue;
    out.active[i] = 1;
    out.any = true;
    injector.resume_scope(scopes[i], fault_ops[i]);
    const FaultKind fault = injector.sample(FaultSite::Kernel);
    fault_ops[i] = injector.op_index();
    if (fault == FaultKind::None) continue;
    skip[i] = 1;
    faulted.push_back(BatchFault{i, fault});
    if (fault == FaultKind::DeviceDeath) out.death = true;
  }
  return out;
}

[[noreturn]] void throw_batch_death(const char* kernel) {
  throw DeviceFaultError(std::string(kernel) + ": injected " +
                             fault_kind_name(FaultKind::DeviceDeath),
                         /*sticky=*/true);
}

}  // namespace

DevBlock dev_whole(DeviceMatrix& m) {
  return DevBlock{&m, 0, 0, m.rows(), m.cols()};
}

DevBlock dev_block(DeviceMatrix& m, index_t i0, index_t j0, index_t rows,
                   index_t cols) {
  return DevBlock{&m, i0, j0, rows, cols};
}

double gpu_potrf(const GpuExec& exec, DevBlock a, index_t column_offset) {
  MFGPU_CHECK(a.rows == a.cols, "gpu_potrf: block must be square");
  const auto ops = static_cast<double>(potrf_ops(a.rows));
  const double duration =
      exec.device->model().potrf.time(ops, static_cast<double>(a.rows));
  check_kernel_fault("gpu.potrf", exec, ops, duration, {}, {a.mat});
  enqueue_kernel(exec, duration, {}, {a.mat});
  count_kernel("gpu.potrf", ops, duration);
  if (exec.device->numeric()) {
    potrf_unblocked<float>(a.view(), column_offset);
  }
  return duration;
}

double gpu_trsm(const GpuExec& exec, DevBlock tri, DevBlock rhs) {
  MFGPU_CHECK(tri.rows == tri.cols && tri.cols == rhs.cols,
              "gpu_trsm: shape mismatch");
  const auto ops = static_cast<double>(trsm_ops(rhs.rows, rhs.cols));
  const double min_dim = static_cast<double>(std::min(rhs.rows, rhs.cols));
  const double duration = exec.device->model().trsm.time(ops, min_dim);
  check_kernel_fault("gpu.trsm", exec, ops, duration, {tri.mat}, {rhs.mat});
  enqueue_kernel(exec, duration, {tri.mat}, {rhs.mat});
  count_kernel("gpu.trsm", ops, duration);
  if (exec.device->numeric()) {
    trsm<float>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                1.0f, tri.view(), rhs.view());
  }
  return duration;
}

double gpu_syrk(const GpuExec& exec, float alpha, DevBlock a, DevBlock c,
                float beta) {
  MFGPU_CHECK(c.rows == c.cols && a.rows == c.rows, "gpu_syrk: shape mismatch");
  const auto ops = static_cast<double>(syrk_ops(c.rows, a.cols));
  const double min_dim = static_cast<double>(std::min(c.rows, a.cols));
  const double duration = exec.device->model().syrk.time(ops, min_dim);
  check_kernel_fault("gpu.syrk", exec, ops, duration, {a.mat}, {c.mat});
  enqueue_kernel(exec, duration, {a.mat}, {c.mat});
  count_kernel("gpu.syrk", ops, duration);
  if (exec.device->numeric()) {
    syrk_lower<float>(alpha, a.view(), beta, c.view());
  }
  return duration;
}

double gpu_gemm_nt(const GpuExec& exec, float alpha, DevBlock a, DevBlock b,
                   DevBlock c) {
  MFGPU_CHECK(a.rows == c.rows && b.rows == c.cols && a.cols == b.cols,
              "gpu_gemm_nt: shape mismatch");
  const auto ops = static_cast<double>(gemm_ops(c.rows, c.cols, a.cols));
  const double min_dim =
      static_cast<double>(std::min({c.rows, c.cols, a.cols}));
  const double duration = exec.device->model().gemm.time(ops, min_dim);
  check_kernel_fault("gpu.gemm", exec, ops, duration, {a.mat, b.mat},
                     {c.mat});
  enqueue_kernel(exec, duration, {a.mat, b.mat}, {c.mat});
  count_kernel("gpu.gemm", ops, duration);
  if (exec.device->numeric()) {
    gemm<float>(Trans::NoTrans, Trans::Transpose, alpha, a.view(), b.view(),
                1.0f, c.view());
  }
  return duration;
}

double gpu_potrf_batched(const GpuExec& exec, std::span<const DevBlock> as,
                         std::span<const index_t> column_offsets,
                         std::span<const std::uint64_t> scopes,
                         std::span<std::uint64_t> fault_ops,
                         std::span<char> skip,
                         std::vector<BatchFault>& faulted) {
  const std::size_t n = as.size();
  MFGPU_CHECK(column_offsets.size() == n && scopes.size() == n &&
                  fault_ops.size() == n && skip.size() == n,
              "gpu_potrf_batched: span size mismatch");
  const BatchFaults faults = sample_batch_faults(
      exec.device->fault_injector(), scopes, fault_ops, skip, faulted);
  if (!faults.any) return 0.0;
  const KernelRateModel& model = exec.device->model().potrf;
  double total_ops = 0.0;
  double duration = model.batch_overhead();
  std::vector<DeviceMatrix*> outputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (faults.active[i] == 0) continue;
    MFGPU_CHECK(as[i].rows == as[i].cols, "gpu_potrf_batched: non-square");
    const auto ops = static_cast<double>(potrf_ops(as[i].rows));
    total_ops += ops;
    duration += model.marginal_time(ops, static_cast<double>(as[i].rows));
    outputs.push_back(as[i].mat);
  }
  enqueue_kernel_batched(exec, duration, {}, outputs);
  count_kernel("gpu.potrf", total_ops, duration);
  if (faults.death) throw_batch_death("gpu.potrf");
  return duration;
}

double gpu_trsm_batched(const GpuExec& exec, std::span<const DevBlock> tris,
                        std::span<const DevBlock> rhss,
                        std::span<const std::uint64_t> scopes,
                        std::span<std::uint64_t> fault_ops,
                        std::span<char> skip,
                        std::vector<BatchFault>& faulted) {
  const std::size_t n = tris.size();
  MFGPU_CHECK(rhss.size() == n && scopes.size() == n && fault_ops.size() == n &&
                  skip.size() == n,
              "gpu_trsm_batched: span size mismatch");
  const BatchFaults faults = sample_batch_faults(
      exec.device->fault_injector(), scopes, fault_ops, skip, faulted);
  if (!faults.any) return 0.0;
  const KernelRateModel& model = exec.device->model().trsm;
  double total_ops = 0.0;
  double duration = model.batch_overhead();
  std::vector<const DeviceMatrix*> inputs;
  std::vector<DeviceMatrix*> outputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (faults.active[i] == 0) continue;
    MFGPU_CHECK(tris[i].rows == tris[i].cols && tris[i].cols == rhss[i].cols,
                "gpu_trsm_batched: shape mismatch");
    const auto ops = static_cast<double>(trsm_ops(rhss[i].rows, rhss[i].cols));
    const double min_dim =
        static_cast<double>(std::min(rhss[i].rows, rhss[i].cols));
    total_ops += ops;
    duration += model.marginal_time(ops, min_dim);
    inputs.push_back(tris[i].mat);
    outputs.push_back(rhss[i].mat);
  }
  enqueue_kernel_batched(exec, duration, inputs, outputs);
  count_kernel("gpu.trsm", total_ops, duration);
  if (faults.death) throw_batch_death("gpu.trsm");
  return duration;
}

double gpu_syrk_batched(const GpuExec& exec, float /*alpha*/,
                        std::span<const DevBlock> as,
                        std::span<const DevBlock> cs,
                        std::span<const std::uint64_t> scopes,
                        std::span<std::uint64_t> fault_ops,
                        std::span<char> skip,
                        std::vector<BatchFault>& faulted) {
  const std::size_t n = as.size();
  MFGPU_CHECK(cs.size() == n && scopes.size() == n && fault_ops.size() == n &&
                  skip.size() == n,
              "gpu_syrk_batched: span size mismatch");
  const BatchFaults faults = sample_batch_faults(
      exec.device->fault_injector(), scopes, fault_ops, skip, faulted);
  if (!faults.any) return 0.0;
  const KernelRateModel& model = exec.device->model().syrk;
  double total_ops = 0.0;
  double duration = model.batch_overhead();
  std::vector<const DeviceMatrix*> inputs;
  std::vector<DeviceMatrix*> outputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (faults.active[i] == 0) continue;
    MFGPU_CHECK(cs[i].rows == cs[i].cols && as[i].rows == cs[i].rows,
                "gpu_syrk_batched: shape mismatch");
    const auto ops = static_cast<double>(syrk_ops(cs[i].rows, as[i].cols));
    const double min_dim =
        static_cast<double>(std::min(cs[i].rows, as[i].cols));
    total_ops += ops;
    duration += model.marginal_time(ops, min_dim);
    inputs.push_back(as[i].mat);
    outputs.push_back(cs[i].mat);
  }
  enqueue_kernel_batched(exec, duration, inputs, outputs);
  count_kernel("gpu.syrk", total_ops, duration);
  if (faults.death) throw_batch_death("gpu.syrk");
  return duration;
}

double host_potrf(const HostExec& exec, MatrixView<double> a,
                  index_t column_offset) {
  const auto ops = static_cast<double>(potrf_ops(a.rows()));
  const double duration =
      exec.model->potrf.time(ops, static_cast<double>(a.rows()));
  {
    CostClassScope cls(CostClass::Host);
    exec.clock->advance(duration);
  }
  count_kernel("host.potrf", ops, duration);
  if (exec.numeric) potrf<double>(a, 64, column_offset);
  return duration;
}

double host_trsm(const HostExec& exec, MatrixView<const double> tri,
                 MatrixView<double> rhs) {
  const auto ops = static_cast<double>(trsm_ops(rhs.rows(), rhs.cols()));
  const double min_dim =
      static_cast<double>(std::min(rhs.rows(), rhs.cols()));
  const double duration = exec.model->trsm.time(ops, min_dim);
  {
    CostClassScope cls(CostClass::Host);
    exec.clock->advance(duration);
  }
  count_kernel("host.trsm", ops, duration);
  if (exec.numeric) {
    trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                 1.0, tri, rhs);
  }
  return duration;
}

double host_syrk(const HostExec& exec, double alpha,
                 MatrixView<const double> a, MatrixView<double> c) {
  const auto ops = static_cast<double>(syrk_ops(c.rows(), a.cols()));
  const double min_dim = static_cast<double>(std::min(c.rows(), a.cols()));
  const double duration = exec.model->syrk.time(ops, min_dim);
  {
    CostClassScope cls(CostClass::Host);
    exec.clock->advance(duration);
  }
  count_kernel("host.syrk", ops, duration);
  if (exec.numeric) syrk_lower<double>(alpha, a, 1.0, c);
  return duration;
}

double host_assembly_rate() { return 1.2e9; }

double host_apply_update(const HostExec& exec,
                         MatrixView<const float> product,
                         MatrixView<double> c) {
  MFGPU_CHECK(!exec.numeric || (product.rows() == c.rows() &&
                                product.cols() == c.cols()),
              "host_apply_update: shape mismatch");
  const index_t n = c.rows();
  const double entries =
      0.5 * static_cast<double>(n) * static_cast<double>(n + 1);
  const double duration = entries / host_assembly_rate();
  {
    CostClassScope cls(CostClass::Assembly);
    exec.clock->advance(duration);
  }
  if (exec.numeric) {
    for (index_t j = 0; j < c.cols(); ++j) {
      for (index_t i = j; i < n; ++i) {
        c(i, j) -= static_cast<double>(product(i, j));
      }
    }
  }
  return duration;
}

double host_assembly_cost(const HostExec& exec, double entries) {
  MFGPU_CHECK(entries >= 0.0, "host_assembly_cost: negative entries");
  const double duration = entries / host_assembly_rate();
  CostClassScope cls(CostClass::Assembly);
  exec.clock->advance(duration);
  return duration;
}

}  // namespace mfgpu
