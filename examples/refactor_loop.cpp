// refactor_loop — the phase-split Solver API on a time-stepping workload.
//
// A transient heat problem factors (I + dt*A) once per step as dt changes
// and advances four heat fields at once: the sparsity pattern never
// changes, so the symbolic analysis (ordering, supernodes, the value
// permutation map), the pool's task graph and the grouped solve sweeps are
// paid once, and each step only reruns the numeric phase, overwriting the
// previous factor in place, and one refined 4-column block solve. The
// factor, both sweeps and the refinement residuals all run on the Solver's
// one pool of 4 work-stealing threads.
#include <cstdio>
#include <vector>

#include "core/solver.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

namespace {

/// I + dt * A, built on A's exact sparsity pattern.
SparseSpd shifted(const SparseSpd& a, double dt) {
  std::vector<index_t> col_ptr(a.col_ptr().begin(), a.col_ptr().end());
  std::vector<index_t> row_idx(a.row_idx().begin(), a.row_idx().end());
  std::vector<double> values(a.values().begin(), a.values().end());
  for (double& v : values) v *= dt;
  for (index_t j = 0; j < a.n(); ++j) {
    for (index_t p = col_ptr[static_cast<std::size_t>(j)];
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      if (row_idx[static_cast<std::size_t>(p)] == j) {
        values[static_cast<std::size_t>(p)] += 1.0;
      }
    }
  }
  return SparseSpd(a.n(), std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

}  // namespace

int main() {
  const GridProblem problem = make_laplacian_3d(14, 12, 10);
  const index_t n = problem.matrix.n();
  std::printf("heat problem: n=%lld, 6 implicit steps with shrinking dt\n",
              static_cast<long long>(n));

  SolverOptions options;
  options.mode = SolverMode::Serial;
  options.num_threads = 4;    // numeric phase on the work-stealing pool
  options.solve_threads = 4;  // sweeps and residuals on the same pool
  Solver solver = Solver::analyze(shifted(problem.matrix, 1.0), options);
  std::printf("analyze once: %lld supernodes\n",
              static_cast<long long>(
                  solver.analysis().symbolic.num_supernodes()));

  // Four fields, column j starting at the constant 1 + j.
  constexpr index_t kFields = 4;
  Matrix<double> u(n, kFields);
  for (index_t j = 0; j < kFields; ++j) {
    for (index_t i = 0; i < n; ++i) u(i, j) = 1.0 + static_cast<double>(j);
  }
  double dt = 1.0;
  for (int step = 0; step < 6; ++step, dt *= 0.5) {
    if (step == 0) {
      solver.factor();  // first numeric factorization of the analyzed matrix
    } else {
      solver.refactor(shifted(problem.matrix, dt));  // same pattern, new dt
    }
    u = solver.solve(u);
    double norm = 0.0;
    for (index_t i = 0; i < n; ++i) norm += u(i, 0) * u(i, 0);
    std::printf(
        "step %d: dt=%-8g factor %.4f simulated s (%.4f wall s), "
        "|u_0|^2 = %.6g\n",
        step, dt, solver.factor_time(), solver.factor_wall_seconds(), norm);
  }
  return 0;
}
