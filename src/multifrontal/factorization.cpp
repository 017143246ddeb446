#include "multifrontal/factorization.hpp"

#include <algorithm>

#include "multifrontal/front_step.hpp"
#include "obs/obs.hpp"

namespace mfgpu {

std::int64_t Factorization::storage_bytes() const noexcept {
  std::int64_t bytes = 0;
  for (const auto& p : panels) {
    bytes += static_cast<std::int64_t>(p.rows()) * p.cols() * 8;
  }
  return bytes;
}

std::optional<FactorDifference> first_factor_difference(
    const Factorization& a, const Factorization& b) {
  if (a.panels.size() != b.panels.size()) {
    return FactorDifference{.panel = std::min(a.panels.size(),
                                              b.panels.size())};
  }
  for (std::size_t s = 0; s < a.panels.size(); ++s) {
    const Matrix<double>& pa = a.panels[s];
    const Matrix<double>& pb = b.panels[s];
    if (pa.rows() != pb.rows() || pa.cols() != pb.cols()) {
      return FactorDifference{.panel = s};
    }
    for (index_t j = 0; j < pa.cols(); ++j) {
      for (index_t i = j; i < pa.rows(); ++i) {
        if (pa(i, j) != pb(i, j)) {
          return FactorDifference{s, i, j, pa(i, j), pb(i, j)};
        }
      }
    }
  }
  return std::nullopt;
}

FactorizeResult factorize(const Analysis& analysis, FuExecutor& executor,
                          FactorContext& ctx,
                          const FactorizeOptions& options) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t nsup = sym.num_supernodes();
  const BatchPlan plan = options.batching.enabled()
                             ? group_batches(sym, options.batching)
                             : BatchPlan{};

  obs::ScopedSpan factorize_span("multifrontal", "factorize",
                                 &ctx.host_clock);
  factorize_span.set_arg(0, "supernodes", nsup);

  FrontTree::Setup setup;
  setup.numeric = ctx.numeric;
  if (!plan.any()) {
    // Postorder: update matrices are produced and consumed in strict stack
    // order, so they live on one LIFO arena bounded by the symbolic peak.
    setup.update_stack = true;
    FrontTree tree(analysis, options, setup);
    FrontWorker worker(tree, executor, ctx);
    for (index_t s = 0; s < nsup; ++s) worker.run_front(s);
    return tree.finish(std::span(&worker, 1));
  }

  // Level sweep for the batched path. Fronts are processed by ascending
  // etree height (all children of a height-h front have height < h), so
  // every member of a planned batch is independent and ready together.
  // The LIFO discipline does not survive level order, so each update lives
  // in its own buffer until the parent consumes it; the extend-add order
  // and all per-front numeric math are unchanged, so the factor is bitwise
  // the same.
  factorize_span.set_arg(1, "batches",
                         static_cast<index_t>(plan.batches.size()));
  setup.plan = &plan;
  FrontTree tree(analysis, options, setup);
  FrontWorker worker(tree, executor, ctx);
  std::vector<std::vector<index_t>> levels(
      static_cast<std::size_t>(std::max<index_t>(plan.num_levels, 1)));
  for (index_t s = 0; s < nsup; ++s) {
    levels[static_cast<std::size_t>(plan.height[static_cast<std::size_t>(s)])]
        .push_back(s);
  }
  std::vector<char> batch_done(plan.batches.size(), 0);
  for (const auto& level_snodes : levels) {
    for (index_t s : level_snodes) {
      const int b = plan.batch_of[static_cast<std::size_t>(s)];
      if (b < 0) {
        worker.run_front(s);
      } else if (batch_done[static_cast<std::size_t>(b)] == 0) {
        batch_done[static_cast<std::size_t>(b)] = 1;
        worker.run_batch(b);
      }
    }
  }
  return tree.finish(std::span(&worker, 1));
}

}  // namespace mfgpu
