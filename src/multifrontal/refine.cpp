#include "multifrontal/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "sched/thread_pool.hpp"

namespace mfgpu {

namespace {

/// 2-norm of r = b - A x, with r left in the caller's scratch.
double residual_norm(const SparseSpd& a, std::span<const double> x,
                     std::span<const double> b, std::span<double> r) {
  a.multiply(x, r);
  double sum = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
    sum += r[i] * r[i];
  }
  return std::sqrt(sum);
}

}  // namespace

double residual_norm(const SparseSpd& a, std::span<const double> x,
                     std::span<const double> b) {
  const auto n = static_cast<std::size_t>(a.n());
  MFGPU_CHECK(x.size() == n && b.size() == n, "residual_norm: size mismatch");
  std::vector<double> r(n);
  return residual_norm(a, x, b, r);
}

// The scalar API is the one-column case of the blocked loop below — one
// implementation, so the two can never drift (the serving layer's
// batched-vs-unbatched bitwise-identity guarantee rests on this).
RefineResult solve_with_refinement(const SparseSpd& a_original,
                                   const Analysis& analysis,
                                   const Factorization& factor,
                                   std::span<const double> b,
                                   int max_iterations, double tol,
                                   const ParallelSolveOptions& solve_options) {
  const auto n = static_cast<std::size_t>(a_original.n());
  MFGPU_CHECK(b.size() == n, "solve_with_refinement: size mismatch");
  Matrix<double> rhs(static_cast<index_t>(n), 1);
  std::memcpy(rhs.data(), b.data(), n * sizeof(double));
  BlockRefineResult block = solve_with_refinement(
      a_original, analysis, factor, rhs, max_iterations, tol, solve_options);
  RefineResult result;
  result.x.assign(block.x.data(), block.x.data() + n);
  result.residual_norms = std::move(block.residual_norms.front());
  result.iterations = block.iterations.front();
  return result;
}

BlockRefineResult solve_with_refinement(
    const SparseSpd& a_original, const Analysis& analysis,
    const Factorization& factor, const Matrix<double>& b, int max_iterations,
    double tol, const ParallelSolveOptions& solve_options) {
  const auto n = static_cast<std::size_t>(a_original.n());
  const index_t num_rhs = b.cols();
  MFGPU_CHECK(static_cast<std::size_t>(b.rows()) == n,
              "solve_with_refinement: size mismatch");
  MFGPU_CHECK(num_rhs >= 1, "solve_with_refinement: empty rhs block");

  // One pool for every solve and residual of the loop.
  ParallelSolveOptions options = solve_options;
  options.threads = std::max(1, options.threads);
  std::optional<ThreadPool> transient;
  if (options.threads > 1 && options.pool == nullptr) {
    options.pool = &transient.emplace(options.threads);
  }

  BlockRefineResult result;
  result.x = solve(analysis, factor, b, num_rhs, options);
  result.residual_norms.resize(static_cast<std::size_t>(num_rhs));
  result.iterations.assign(static_cast<std::size_t>(num_rhs), 0);

  auto col_span = [n](const Matrix<double>& m, index_t col) {
    return std::span<const double>(m.data() + col * static_cast<index_t>(n),
                                   n);
  };

  // Per-column refinement state, mirroring the scalar loop exactly: each
  // column converges, stagnates, and reverts on its own norms. A step is
  // not guaranteed to improve (a factor of the wrong or corrupted matrix
  // diverges), so the smallest-residual iterate is tracked per column and
  // the recorded history is truncated back to it on revert — back() always
  // equals residual_norm(a, x_col, b_col), with no duplicated entries.
  // best_x[c] holds the best iterate once a step has moved past it: it is
  // copied only when a step is about to overwrite it.
  std::vector<double> target(static_cast<std::size_t>(num_rhs));
  std::vector<double> best_norm(static_cast<std::size_t>(num_rhs));
  std::vector<std::size_t> best_pos(static_cast<std::size_t>(num_rhs), 0);
  std::vector<std::vector<double>> best_x(static_cast<std::size_t>(num_rhs));
  std::vector<char> done(static_cast<std::size_t>(num_rhs), 0);
  // Residual scratch per worker, allocated here so no column task
  // allocates unless a step follows: a column that will take one keeps the
  // residual its norm was computed from (swapped into kept[c], whose
  // buffer the worker takes over), and the step solves for it as is
  // instead of recomputing b - A x on the same x.
  std::vector<std::vector<double>> scratch(
      static_cast<std::size_t>(options.threads), std::vector<double>(n));
  std::vector<std::vector<double>> kept(static_cast<std::size_t>(num_rhs));
  auto norm_of = [&](index_t col, int w) {
    auto& r = scratch[static_cast<std::size_t>(w)];
    r.resize(n);
    return residual_norm(a_original, col_span(result.x, col), col_span(b, col),
                         r);
  };
  auto keep_residual = [&](index_t col, int w) {
    std::swap(kept[static_cast<std::size_t>(col)],
              scratch[static_cast<std::size_t>(w)]);
  };

  for_each_column(num_rhs, options, [&](index_t col, int w) {
    const auto c = static_cast<std::size_t>(col);
    result.residual_norms[c].push_back(norm_of(col, w));
    double b_norm = 0.0;
    for (double v : col_span(b, col)) b_norm += v * v;
    b_norm = std::sqrt(b_norm);
    target[c] = tol * (b_norm > 0.0 ? b_norm : 1.0);
    best_norm[c] = result.residual_norms[c].back();
    if (max_iterations > 0 && best_norm[c] > target[c]) keep_residual(col, w);
  });

  std::vector<index_t> active;
  for (int it = 0; it < max_iterations; ++it) {
    active.clear();
    for (index_t col = 0; col < num_rhs; ++col) {
      const auto c = static_cast<std::size_t>(col);
      if (!done[c] && result.residual_norms[c].back() > target[c]) {
        active.push_back(col);
      }
    }
    if (active.empty()) break;
    const auto num_active = static_cast<index_t>(active.size());

    // The kept r = b - A x per active column, in double precision; then
    // one blocked correction solve for the whole active set.
    Matrix<double> rblock(static_cast<index_t>(n), num_active);
    for (index_t a = 0; a < num_active; ++a) {
      const index_t col = active[static_cast<std::size_t>(a)];
      std::memcpy(rblock.data() + a * static_cast<index_t>(n),
                  kept[static_cast<std::size_t>(col)].data(),
                  n * sizeof(double));
    }
    const Matrix<double> dx =
        solve(analysis, factor, rblock, num_active, options);

    for_each_column(num_active, options, [&](index_t a, int w) {
      const index_t col = active[static_cast<std::size_t>(a)];
      const auto c = static_cast<std::size_t>(col);
      double* x_col = result.x.data() + col * static_cast<index_t>(n);
      const double* dx_col = dx.data() + a * static_cast<index_t>(n);
      auto& norms = result.residual_norms[c];
      if (best_pos[c] + 1 == norms.size()) best_x[c].assign(x_col, x_col + n);
      for (std::size_t i = 0; i < n; ++i) x_col[i] += dx_col[i];
      const double norm = norm_of(col, w);
      ++result.iterations[c];
      if (norm < best_norm[c]) {
        best_norm[c] = norm;
        best_pos[c] = norms.size();
      }
      // Stop this column when refinement stagnates (no ~2x improvement).
      if (norm > 0.5 * norms.back()) done[c] = 1;
      norms.push_back(norm);
      if (!done[c] && norm > target[c] && it + 1 < max_iterations) {
        keep_residual(col, w);
      }
    });
  }

  for (index_t col = 0; col < num_rhs; ++col) {
    const auto c = static_cast<std::size_t>(col);
    auto& norms = result.residual_norms[c];
    if (best_norm[c] < norms.back()) {
      double* x_col = result.x.data() + col * static_cast<index_t>(n);
      std::memcpy(x_col, best_x[c].data(), n * sizeof(double));
      norms.resize(best_pos[c] + 1);
    }
  }
  return result;
}

}  // namespace mfgpu
