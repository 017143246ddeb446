// Iterative refinement. The paper runs the GPU kernels in single precision
// (the T10's double-precision rate is 8x lower) and notes the lost digits
// "could be readily regained by one or two steps of iterative refinement
// using double precision sparse matrix-vector multiplication" — this module
// is that loop.
#pragma once

#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "multifrontal/parallel_solve.hpp"
#include "sparse/csc.hpp"

namespace mfgpu {

struct RefineResult {
  /// The smallest-residual iterate seen — not necessarily the last one, as
  /// a refinement step can diverge when the factor mismatches the matrix.
  std::vector<double> x;
  /// 2-norm of b - A x before refinement and after each accepted step. The
  /// history always ends at the returned iterate: when later steps
  /// diverged, the trailing diverged entries are dropped, so back() equals
  /// residual_norm(a, result.x, b) with no duplicated entries.
  std::vector<double> residual_norms;
  int iterations = 0;
};

/// Blocked variant: one RefineResult-shaped record per column.
struct BlockRefineResult {
  Matrix<double> x;
  /// Per-column residual history, same contract as RefineResult (each
  /// history ends at its column's returned iterate).
  std::vector<std::vector<double>> residual_norms;
  std::vector<int> iterations;
};

/// Solve A x = b through the (possibly mixed-precision) factorization, then
/// refine with double-precision residuals until the residual norm stops
/// improving, drops below `tol * ||b||`, or `max_iterations` is reached.
/// Returns the best (smallest-residual) iterate encountered.
/// `solve_options` selects the level-scheduled solve used for the initial
/// solve and every correction (threads, cached schedule); the result is
/// bitwise independent of that choice.
RefineResult solve_with_refinement(const SparseSpd& a_original,
                                   const Analysis& analysis,
                                   const Factorization& factor,
                                   std::span<const double> b,
                                   int max_iterations = 5, double tol = 1e-14,
                                   const ParallelSolveOptions& solve_options = {});

/// Blocked multi-RHS refinement: per-column decisions identical to the
/// scalar loop (each column converges, stagnates, and reverts on its own
/// norms), but every iteration batches the still-active columns into ONE
/// blocked solve so the factor panels are streamed once per step. Column j
/// of the result is bitwise identical to solve_with_refinement on b.col(j).
BlockRefineResult solve_with_refinement(const SparseSpd& a_original,
                                        const Analysis& analysis,
                                        const Factorization& factor,
                                        const Matrix<double>& b,
                                        int max_iterations = 5,
                                        double tol = 1e-14,
                                        const ParallelSolveOptions& solve_options = {});

/// 2-norm of b - A x.
double residual_norm(const SparseSpd& a, std::span<const double> x,
                     std::span<const double> b);

}  // namespace mfgpu
