// Quickstart: build an SPD system, analyze it, factor it with the hybrid
// CPU+GPU pipeline, and solve to double-precision accuracy with iterative
// refinement.
//
//   $ ./quickstart
//
// The "GPU" is the library's simulated Tesla T10 (see DESIGN.md): numerics
// are real (device kernels run in single precision), performance numbers
// come from the calibrated virtual clock.
#include <cstdio>

#include "multifrontal/refine.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/baseline_hybrid.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  // 1. A sparse SPD matrix: a 20x20x20 Poisson problem (n = 8000).
  const GridProblem problem = make_laplacian_3d(20, 20, 20);
  const SparseSpd& a = problem.matrix;
  std::printf("matrix: n = %lld, nnz = %lld\n",
              static_cast<long long>(a.n()),
              static_cast<long long>(a.nnz_full()));

  // 2. Fill-reducing ordering + symbolic analysis.
  const Analysis analysis = analyze(a, minimum_degree(build_graph(a)));
  std::printf("symbolic: %lld supernodes, nnz(L) = %lld, %.3g flops\n",
              static_cast<long long>(analysis.symbolic.num_supernodes()),
              static_cast<long long>(analysis.symbolic.factor_nnz()),
              analysis.symbolic.factor_flops());

  // 3. Numeric factorization with the baseline hybrid policy dispatcher
  //    (P1..P4 chosen per front by op count) on a simulated GPU.
  Device device;
  FactorContext ctx;
  ctx.device = &device;
  DispatchExecutor hybrid = make_baseline_hybrid(paper_thresholds());
  const FactorizeResult factored = factorize(analysis, hybrid, ctx);
  std::printf("factorization: %.3f simulated seconds (%zu F-U calls)\n",
              factored.trace.total_time, factored.trace.calls.size());

  // 4. Solve A x = b for a manufactured solution x* = 1, then refine.
  std::vector<double> x_true(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(x_true.size());
  a.multiply(x_true, b);
  const RefineResult solution =
      solve_with_refinement(a, analysis, factored.factor, b);
  std::printf("solve: residual %.3e -> %.3e after %d refinement step(s)\n",
              solution.residual_norms.front(), solution.residual_norms.back(),
              solution.iterations);

  double max_err = 0.0;
  for (double v : solution.x) max_err = std::max(max_err, std::abs(v - 1.0));
  std::printf("max |x - 1| = %.3e\n", max_err);
  return (max_err < 1e-8) ? 0 : 1;
}
