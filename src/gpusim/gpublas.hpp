// CUBLAS-like kernels on the simulated device, and their host (ATLAS-like)
// counterparts. Each call performs the real computation (float on device,
// double on host, unless the execution is a dry run), charges the
// calibrated model time to the right clock/stream, and returns the kernel's
// model duration in seconds so callers can attribute component times.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dense/blas.hpp"
#include "dense/matrix.hpp"
#include "gpusim/device.hpp"

namespace mfgpu {

/// A rectangular block of a device matrix, carrying the owning matrix for
/// availability bookkeeping (dependencies are tracked per matrix).
struct DevBlock {
  DeviceMatrix* mat = nullptr;
  index_t i0 = 0, j0 = 0, rows = 0, cols = 0;

  MatrixView<float> view() const {
    return mat->data.block(i0, j0, rows, cols);
  }
};

DevBlock dev_whole(DeviceMatrix& m);
DevBlock dev_block(DeviceMatrix& m, index_t i0, index_t j0, index_t rows,
                   index_t cols);

/// Execution context for device kernels: which device, which stream, and
/// the host clock paying the enqueue overheads.
struct GpuExec {
  Device* device = nullptr;
  Stream* stream = nullptr;
  SimClock* host = nullptr;
};

/// Light-weight w x w Cholesky kernel (paper Fig. 9 panel step).
double gpu_potrf(const GpuExec& exec, DevBlock a, index_t column_offset = 0);
/// rhs := rhs * tri^{-T} (the paper's trsm; tri lower-triangular k x k,
/// rhs m x k).
double gpu_trsm(const GpuExec& exec, DevBlock tri, DevBlock rhs);
/// c(lower) := beta * c + alpha * a * a^T  (paper's syrk). beta 0 writes
/// the lower triangle without reading it: bitwise the result of beta 1 on
/// a zeroed block.
double gpu_syrk(const GpuExec& exec, float alpha, DevBlock a, DevBlock c,
                float beta = 1.0f);
/// c := c + alpha * a * b^T (panel update inside P4).
double gpu_gemm_nt(const GpuExec& exec, float alpha, DevBlock a, DevBlock b,
                   DevBlock c);

// ---------------------------------------------------------------------------
// Batched-BLAS-style aggregated launches.
//
// Each member front keeps its own marginal flop time (at its own
// tile-shape-degraded rate), but the whole batch pays ONE host
// kernel-enqueue and ONE per-launch fixed cost — launch latency plus the
// utilization ramp (KernelRateModel::batch_overhead):
//     t_batch = latency + ops_half/peak + sum_i marginal_i
// The aggregated launch climbs the occupancy ramp once over its total op
// count instead of once per tiny call — the amortization that makes the
// paper's ~97% small-call regime worth sending to the GPU at all.
//
// These launches are priced, not computed: they model FP64 batched kernels
// (dpotrf/dtrsm/dsyrk_batched), so the authoritative member math runs on
// the host in double inside run_batched_dispatch — bit-for-bit the per-front
// P1 kernels. The float device buffers only carry the transfer/fault
// simulation (an injected transfer corruption lands in them and is caught
// when the downloads are validated).
//
// Fault contract (degrade per front, never per batch): every member samples
// the injector under its own scope (`scopes[i]`, op counter resumed from
// `fault_ops[i]` and written back). A transient fault marks that member in
// `skip` and appends its index to `faulted`; its numeric work is dropped but
// its wasted device time stays charged, and the rest of the batch proceeds.
// DeviceDeath still throws (sticky) after charging the batch. Members
// already marked in `skip` are ignored entirely.
// ---------------------------------------------------------------------------

/// One member of a batched launch that faulted: its index in the batch and
/// the injected fault kind the launch observed for it.
struct BatchFault {
  std::size_t index = 0;
  FaultKind kind = FaultKind::None;
};

double gpu_potrf_batched(const GpuExec& exec, std::span<const DevBlock> as,
                         std::span<const index_t> column_offsets,
                         std::span<const std::uint64_t> scopes,
                         std::span<std::uint64_t> fault_ops,
                         std::span<char> skip,
                         std::vector<BatchFault>& faulted);
double gpu_trsm_batched(const GpuExec& exec, std::span<const DevBlock> tris,
                        std::span<const DevBlock> rhss,
                        std::span<const std::uint64_t> scopes,
                        std::span<std::uint64_t> fault_ops,
                        std::span<char> skip,
                        std::vector<BatchFault>& faulted);
double gpu_syrk_batched(const GpuExec& exec, float alpha,
                        std::span<const DevBlock> as,
                        std::span<const DevBlock> cs,
                        std::span<const std::uint64_t> scopes,
                        std::span<std::uint64_t> fault_ops,
                        std::span<char> skip,
                        std::vector<BatchFault>& faulted);

/// Host execution context: the CPU clock plus its calibrated model.
struct HostExec {
  SimClock* clock = nullptr;
  const ProcessorModel* model = nullptr;
  bool numeric = true;
};

double host_potrf(const HostExec& exec, MatrixView<double> a,
                  index_t column_offset = 0);
double host_trsm(const HostExec& exec, MatrixView<const double> tri,
                 MatrixView<double> rhs);
double host_syrk(const HostExec& exec, double alpha,
                 MatrixView<const double> a, MatrixView<double> c);
/// c(lower) -= double(product), elementwise: the host applies a
/// device-computed L2 L2^T straight from the device's float block (read in
/// place after its priced download, see Device::copy_from_device_sync),
/// charged at memory-bound speed. The float-to-double conversion is exact,
/// so this is bitwise a converted copy followed by the subtraction; the
/// strict upper triangle of c is never touched. Dry runs (exec.numeric
/// false) only charge the time and may pass an empty product.
double host_apply_update(const HostExec& exec, MatrixView<const float> product,
                         MatrixView<double> c);
/// Charge generic memory-bound assembly work of `entries` moved entries.
double host_assembly_cost(const HostExec& exec, double entries);

/// Memory-bound host rate for assembly/apply operations (entries/s).
double host_assembly_rate();

}  // namespace mfgpu
