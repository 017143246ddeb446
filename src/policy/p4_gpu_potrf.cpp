#include "policy/p4_gpu_potrf.hpp"

#include <algorithm>

namespace mfgpu {

index_t p4_auto_panel_width(index_t k, index_t m) {
  (void)m;  // reserved: a width tuned per front shape (see header note)
  return std::clamp<index_t>(k / 32, 64, 512);
}

P4KernelTimes p4_factor_on_gpu(const GpuExec& exec, DeviceMatrix& panel,
                               DeviceMatrix* u_product, index_t m, index_t k,
                               index_t panel_width, index_t global_col) {
  MFGPU_CHECK(panel.rows() == k + m && panel.cols() == k,
              "p4_factor_on_gpu: panel shape mismatch");
  MFGPU_CHECK(m == 0 || (u_product != nullptr && u_product->rows() == m &&
                         u_product->cols() == m),
              "p4_factor_on_gpu: u_product shape mismatch");
  MFGPU_CHECK(panel_width > 0, "p4_factor_on_gpu: panel width positive");

  P4KernelTimes times;
  for (index_t p = 0; p < k; p += panel_width) {
    const index_t w = std::min(panel_width, k - p);
    // 1. Pivot block.
    times.potrf +=
        gpu_potrf(exec, dev_block(panel, p, p, w, w), global_col + p);

    const index_t below = (k + m) - (p + w);  // rows spanning L1 rest + L2
    if (below > 0) {
      // 2. One trsm across the rest of L1 and all of L2.
      times.trsm += gpu_trsm(exec, dev_block(panel, p, p, w, w),
                             dev_block(panel, p + w, p, below, w));
    }
    const index_t l1_rest = k - (p + w);
    if (l1_rest > 0) {
      // 3. Trailing update of L1's lower triangle.
      times.syrk += gpu_syrk(exec, -1.0f,
                             dev_block(panel, p + w, p, l1_rest, w),
                             dev_block(panel, p + w, p + w, l1_rest, l1_rest));
      if (m > 0) {
        // 4. Update the remaining columns of L2.
        times.gemm += gpu_gemm_nt(exec, -1.0f,
                                  dev_block(panel, k, p, m, w),
                                  dev_block(panel, p + w, p, l1_rest, w),
                                  dev_block(panel, k, p + w, m, l1_rest));
      }
    }
    if (m > 0) {
      // 5. Partial update of U from this panel of L2; the first panel
      // defines the product (beta 0), the rest accumulate.
      times.syrk += gpu_syrk(exec, 1.0f, dev_block(panel, k, p, m, w),
                             dev_whole(*u_product), p == 0 ? 0.0f : 1.0f);
    }
  }
  return times;
}

}  // namespace mfgpu
