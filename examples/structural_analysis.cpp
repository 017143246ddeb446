// Structural-analysis scenario: the paper's motivating workload. A 3-D
// elasticity-like model (3 dof per node, 27-point block stencil — the
// pattern class of automotive / metal-forming matrices like audikw_1) is
// ordered with geometric nested dissection, factored once, and the
// factorization reused for multiple load cases. Compares the serial host
// run against the hybrid GPU pipeline and reports the accuracy story
// (single-precision device kernels + refinement).
#include <cstdio>

#include "autotune/hybrid.hpp"
#include "multifrontal/refine.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  Rng rng(42);
  const GridProblem model = make_elasticity_3d(14, 14, 12, 3, rng);
  const SparseSpd& a = model.matrix;
  std::printf("elasticity model: %lldx%lldx%lld grid, 3 dof/node, n = %lld\n",
              static_cast<long long>(model.nx),
              static_cast<long long>(model.ny),
              static_cast<long long>(model.nz),
              static_cast<long long>(a.n()));

  const Analysis analysis = analyze(a, nested_dissection(model.coords));

  // Serial host factorization (double precision throughout).
  PolicyExecutor p1(Policy::P1);
  FactorContext host_ctx;
  const FactorizeResult host_run = factorize(analysis, p1, host_ctx);

  // Hybrid factorization: ideal per-front policy on the simulated T10.
  DispatchExecutor hybrid = make_ideal_hybrid();
  Device device;
  FactorContext gpu_ctx;
  gpu_ctx.device = &device;
  const FactorizeResult gpu_run = factorize(analysis, hybrid, gpu_ctx);

  std::printf("factor time: host %.3f s, hybrid %.3f s -> speedup %.2fx\n",
              host_run.trace.total_time, gpu_run.trace.total_time,
              host_run.trace.total_time / gpu_run.trace.total_time);
  std::printf("PCIe traffic: %.1f MB over the simulated link\n",
              device.bytes_transferred() / 1e6);

  // Multiple load cases against the single hybrid factorization.
  for (int load_case = 0; load_case < 3; ++load_case) {
    std::vector<double> b(static_cast<std::size_t>(a.n()));
    Rng load_rng(100 + static_cast<std::uint64_t>(load_case));
    for (double& v : b) v = load_rng.uniform(-1.0, 1.0);
    const RefineResult solution =
        solve_with_refinement(a, analysis, gpu_run.factor, b);
    std::printf(
        "load case %d: residual %.3e -> %.3e (%d refinement steps; the "
        "single-precision device factor loses digits that refinement "
        "recovers)\n",
        load_case, solution.residual_norms.front(),
        solution.residual_norms.back(), solution.iterations);
  }
  return 0;
}
