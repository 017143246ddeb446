// The paper's Fig. 9 algorithm: blocked Cholesky of the whole (k+m) x k
// frontal panel entirely on the GPU, with the update matrix U accumulated
// on the device. Works in panels of width w:
//   1. potrf on the w x w pivot block (light-weight kernel)
//   2. trsm on the (k+m-p-w) x w block spanning the rest of L1 and L2
//   3. syrk updating the trailing lower triangle of L1
//   4. gemm updating the remaining columns of L2
//   5. syrk accumulating the partial update of U
#pragma once

#include "gpusim/gpublas.hpp"

namespace mfgpu {

struct P4KernelTimes {
  double potrf = 0.0;
  double trsm = 0.0;
  double syrk = 0.0;  ///< includes both L1-trailing and U syrk calls
  double gemm = 0.0;

  double total() const { return potrf + trsm + syrk + gemm; }
};

/// Auto panel width: k/32 clamped to [64, 512]. This is a CALIBRATION
/// choice, not a model optimum: the narrow panels throttle P4's trailing
/// kernels at moderate front sizes, standing in for the costs that kept
/// the paper's all-GPU policy behind P3 until ~9e10 ops (Fig. 10). Under
/// the simulator's cost model alone, wider panels would always win — see
/// bench_ablation_panel_width for the sweep and the discussion in
/// EXPERIMENTS.md.
index_t p4_auto_panel_width(index_t k, index_t m = 0);

/// Factor `panel` ((k+m) x k, L1 in the top k rows) in place on the device
/// and write the update product L2 L2^T into the lower triangle of
/// `u_product` (m x m; its prior contents are not read; may be null when
/// m == 0). Returns per-kernel accumulated model durations.
P4KernelTimes p4_factor_on_gpu(const GpuExec& exec, DeviceMatrix& panel,
                               DeviceMatrix* u_product, index_t m, index_t k,
                               index_t panel_width, index_t global_col);

}  // namespace mfgpu
