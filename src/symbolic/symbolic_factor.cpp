#include "symbolic/symbolic_factor.hpp"

#include <algorithm>
#include <numeric>

#include "dense/blas.hpp"
#include "obs/metrics.hpp"
#include "symbolic/colcounts.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {

SymbolicFactor::SymbolicFactor(const SparseSpd& a_permuted,
                               const AnalyzeOptions& options)
    : n_(a_permuted.n()) {
  obs::ScopedSpan span("symbolic", "symbolic_factor");
  span.set_arg(0, "n", n_);
  {
    obs::ScopedSpan etree_span("symbolic", "elimination_tree");
    col_parent_ = elimination_tree(a_permuted);
  }
  MFGPU_CHECK(is_postordered(col_parent_),
              "SymbolicFactor: matrix must be postordered (use analyze())");
  build(a_permuted, options);
}

SymbolicFactor::SymbolicFactor(const SparseSpd& a_permuted,
                               std::vector<index_t> postordered_parent,
                               const AnalyzeOptions& options)
    : n_(a_permuted.n()), col_parent_(std::move(postordered_parent)) {
  obs::ScopedSpan span("symbolic", "symbolic_factor");
  span.set_arg(0, "n", n_);
  MFGPU_CHECK(static_cast<index_t>(col_parent_.size()) == n_,
              "SymbolicFactor: parent size mismatch");
  build(a_permuted, options);
}

void SymbolicFactor::build(const SparseSpd& a, const AnalyzeOptions& options) {
  const auto counts = [&] {
    obs::ScopedSpan counts_span("symbolic", "column_counts");
    return factor_column_counts(a, col_parent_);
  }();
  const auto part = [&] {
    obs::ScopedSpan snode_span("symbolic", "fundamental_supernodes");
    return fundamental_supernodes(col_parent_, counts);
  }();
  {
    obs::ScopedSpan structures_span("symbolic", "row_structures");
    compute_structures(a, part, counts);
  }
  {
    obs::ScopedSpan relax_span("symbolic", "amalgamate");
    amalgamate(options.relax);
  }
  build_tree();
  finalize_metrics();
  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.gauge_set("symbolic.supernodes",
                      static_cast<double>(num_supernodes()));
    metrics.gauge_set("symbolic.factor_nnz", static_cast<double>(factor_nnz_));
    metrics.gauge_set("symbolic.factor_flops", factor_flops_);
    metrics.gauge_set("symbolic.peak_update_stack_entries",
                      static_cast<double>(peak_stack_));
  }
}

void SymbolicFactor::compute_structures(const SparseSpd& a,
                                        const SupernodePartition& part,
                                        std::span<const index_t> counts) {
  const index_t nsup = part.count();
  snodes_.assign(static_cast<std::size_t>(nsup), SupernodeInfo{});
  snode_of_col_ = part.snode_of_col;

  std::vector<index_t> mark(static_cast<std::size_t>(n_), -1);
  // Children of each supernode as sibling lists; the union below is sorted,
  // so the order children are visited in does not matter.
  std::vector<index_t> first_child(static_cast<std::size_t>(nsup), -1);
  std::vector<index_t> next_sibling(static_cast<std::size_t>(nsup), -1);
  std::vector<index_t> rows;

  // Supernodes are numbered by increasing first column; because columns are
  // postordered, every child supernode has a smaller index than its parent,
  // so one ascending sweep sees children before parents.
  for (index_t s = 0; s < nsup; ++s) {
    auto& sn = snodes_[static_cast<std::size_t>(s)];
    sn.first_col = part.start[static_cast<std::size_t>(s)];
    sn.last_col = part.start[static_cast<std::size_t>(s) + 1];

    rows.clear();
    auto add_row = [&](index_t r) {
      if (r >= sn.last_col && mark[static_cast<std::size_t>(r)] != s) {
        mark[static_cast<std::size_t>(r)] = s;
        rows.push_back(r);
      }
    };
    for (index_t j = sn.first_col; j < sn.last_col; ++j) {
      for (index_t r : a.column_rows(j)) add_row(r);
    }
    for (index_t c = first_child[static_cast<std::size_t>(s)]; c != -1;
         c = next_sibling[static_cast<std::size_t>(c)]) {
      for (index_t r : snodes_[static_cast<std::size_t>(c)].update_rows) {
        add_row(r);
      }
    }
    std::sort(rows.begin(), rows.end());
    // The fundamental supernode structure must reproduce the column counts
    // exactly (update rows + remaining columns of the supernode).
    MFGPU_CHECK(sn.width() + static_cast<index_t>(rows.size()) ==
                    counts[static_cast<std::size_t>(sn.first_col)],
                "SymbolicFactor: supernode structure disagrees with column counts");
    sn.update_rows.assign(rows.begin(), rows.end());

    if (!rows.empty()) {
      sn.parent = snode_of_col_[static_cast<std::size_t>(rows.front())];
      MFGPU_CHECK(sn.parent > s, "SymbolicFactor: parent must follow child");
      next_sibling[static_cast<std::size_t>(s)] =
          first_child[static_cast<std::size_t>(sn.parent)];
      first_child[static_cast<std::size_t>(sn.parent)] = s;
    }
  }
}

void SymbolicFactor::amalgamate(const RelaxOptions& relax) {
  if (!relax.enabled) return;
  const index_t nsup = static_cast<index_t>(snodes_.size());
  std::vector<char> alive(static_cast<std::size_t>(nsup), 1);
  // `absorbed_into[s]` chases merges so children reparent correctly.
  std::vector<index_t> absorbed_into(static_cast<std::size_t>(nsup));
  std::iota(absorbed_into.begin(), absorbed_into.end(), index_t{0});
  auto resolve = [&](index_t s) {
    while (absorbed_into[static_cast<std::size_t>(s)] != s) {
      s = absorbed_into[static_cast<std::size_t>(s)];
    }
    return s;
  };
  std::vector<index_t> merged;

  for (index_t s = 0; s < nsup; ++s) {
    if (!alive[static_cast<std::size_t>(s)]) continue;
    auto& child = snodes_[static_cast<std::size_t>(s)];
    if (child.parent == -1) continue;
    const index_t t = resolve(child.parent);
    auto& par = snodes_[static_cast<std::size_t>(t)];
    // Only a child whose columns end exactly where the parent's begin can
    // merge without relabeling columns (the rightmost child in postorder).
    if (par.first_col != child.last_col) continue;

    // Merged update rows: parent's rows plus the child's rows that fall
    // beyond the parent's column range. Count the ones the parent lacks
    // first; the union is only built for a merge that adds rows.
    const auto beyond = std::lower_bound(child.update_rows.begin(),
                                         child.update_rows.end(), par.last_col);
    index_t missing = 0;
    {
      auto p = par.update_rows.begin();
      for (auto c = beyond; c != child.update_rows.end(); ++c) {
        p = std::lower_bound(p, par.update_rows.end(), *c);
        if (p == par.update_rows.end() || *p != *c) ++missing;
      }
    }
    if (!should_amalgamate(child.width(), child.num_update_rows(), par.width(),
                           par.num_update_rows(),
                           par.num_update_rows() + missing, relax)) {
      continue;
    }

    if (missing > 0) {
      merged.clear();
      std::set_union(par.update_rows.begin(), par.update_rows.end(), beyond,
                     child.update_rows.end(), std::back_inserter(merged));
      par.update_rows.assign(merged.begin(), merged.end());
    }
    par.first_col = child.first_col;
    std::vector<index_t>().swap(child.update_rows);
    alive[static_cast<std::size_t>(s)] = 0;
    absorbed_into[static_cast<std::size_t>(s)] = t;
  }

  // Compact: rebuild the supernode list, remap parents and snode_of_col.
  std::vector<index_t> new_id(static_cast<std::size_t>(nsup), -1);
  std::vector<SupernodeInfo> compact;
  compact.reserve(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    if (!alive[static_cast<std::size_t>(s)]) continue;
    new_id[static_cast<std::size_t>(s)] = static_cast<index_t>(compact.size());
    compact.push_back(std::move(snodes_[static_cast<std::size_t>(s)]));
  }
  for (auto& sn : compact) {
    if (sn.parent != -1) {
      sn.parent = new_id[static_cast<std::size_t>(resolve(sn.parent))];
      MFGPU_CHECK(sn.parent != -1, "amalgamate: dangling parent");
    }
    for (index_t j = sn.first_col; j < sn.last_col; ++j) {
      snode_of_col_[static_cast<std::size_t>(j)] =
          static_cast<index_t>(&sn - compact.data());
    }
  }
  snodes_ = std::move(compact);
}

void SymbolicFactor::build_tree() {
  const auto nsup = snodes_.size();
  children_ptr_.assign(nsup + 1, 0);
  for (const SupernodeInfo& sn : snodes_) {
    if (sn.parent != -1) {
      ++children_ptr_[static_cast<std::size_t>(sn.parent) + 1];
    }
  }
  for (std::size_t i = 0; i < nsup; ++i) {
    children_ptr_[i + 1] += children_ptr_[i];
  }
  children_.resize(static_cast<std::size_t>(children_ptr_.back()));
  std::vector<index_t> cursor(children_ptr_.begin(), children_ptr_.end() - 1);
  height_.assign(nsup, 0);
  num_levels_ = 0;
  // Supernodes are postordered (children precede parents), so one ascending
  // pass lists every parent's children in ascending order and knows a
  // supernode's height before folding it into its parent.
  for (std::size_t s = 0; s < nsup; ++s) {
    num_levels_ = std::max(num_levels_, height_[s] + 1);
    const index_t p = snodes_[s].parent;
    if (p == -1) continue;
    MFGPU_CHECK(p > static_cast<index_t>(s),
                "SymbolicFactor: parent must follow child");
    const auto pi = static_cast<std::size_t>(p);
    children_[static_cast<std::size_t>(cursor[pi]++)] = static_cast<index_t>(s);
    height_[pi] = std::max(height_[pi], height_[s] + 1);
  }
}

void SymbolicFactor::finalize_metrics() {
  factor_nnz_ = 0;
  factor_flops_ = 0.0;
  // Simulate the postorder stack: pushing a supernode's update matrix after
  // popping its children reproduces the numeric phase's memory profile.
  index_t live = 0;
  peak_stack_ = 0;
  std::vector<index_t> live_children(snodes_.size(), 0);

  for (index_t s = 0; s < num_supernodes(); ++s) {
    const auto& sn = snodes_[static_cast<std::size_t>(s)];
    const index_t k = sn.width();
    const index_t m = sn.num_update_rows();
    factor_nnz_ += front_factor_nnz(k, m);
    factor_flops_ += static_cast<double>(potrf_ops(k)) +
                     static_cast<double>(trsm_ops(m, k)) +
                     static_cast<double>(syrk_ops(m, k));
    // Front assembly peak: the front coexists with its children's updates.
    const index_t update_entries = m * (m + 1) / 2;
    live += update_entries;
    peak_stack_ = std::max(peak_stack_, live);
    // Children's update matrices are consumed when this supernode assembles.
    live -= live_children[static_cast<std::size_t>(s)];
    if (sn.parent != -1) {
      live_children[static_cast<std::size_t>(sn.parent)] += update_entries;
    } else {
      live -= update_entries;  // root's update is empty or discarded
    }
  }
}

Analysis analyze(const SparseSpd& a, const Permutation& fill_perm,
                 const AnalyzeOptions& options) {
  if (a.n() == 0) {
    throw InvalidArgumentError("analyze: the matrix is empty (n = 0)");
  }
  MFGPU_CHECK(fill_perm.n() == a.n(), "analyze: permutation size mismatch");
  obs::ScopedSpan span("symbolic", "analyze");
  span.set_arg(0, "n", a.n());
  const auto n = static_cast<std::size_t>(a.n());

  // Postorder the fill order's elimination tree, taken from the pattern
  // alone, and fold it into the permutation; the postorder is an equivalent
  // reordering (same fill) that makes supernode columns contiguous and the
  // update stack LIFO. The tree relabeled through the postorder is the tree
  // of the final matrix, so the values are permuted once.
  const std::vector<index_t> parent = [&] {
    obs::ScopedSpan etree_span("symbolic", "elimination_tree");
    return elimination_tree(a, fill_perm.new_of_old());
  }();
  const std::vector<index_t> post = postorder_forest(parent);
  std::vector<index_t> post_of_fill(n);
  for (std::size_t k = 0; k < n; ++k) {
    post_of_fill[static_cast<std::size_t>(post[k])] = static_cast<index_t>(k);
  }
  std::vector<index_t> post_parent(n);
  for (std::size_t k = 0; k < n; ++k) {
    const index_t p = parent[static_cast<std::size_t>(post[k])];
    post_parent[k] = p == -1 ? -1 : post_of_fill[static_cast<std::size_t>(p)];
  }
  std::vector<index_t> composed(n);
  const auto fill_map = fill_perm.new_of_old();
  for (std::size_t i = 0; i < n; ++i) {
    composed[i] = post_of_fill[static_cast<std::size_t>(fill_map[i])];
  }
  Permutation total(std::move(composed));

  std::vector<index_t> value_source;
  SparseSpd permuted = a.permuted(total.new_of_old(), &value_source);
  SymbolicFactor symbolic(permuted, std::move(post_parent), options);
  return Analysis{std::move(total), std::move(permuted), std::move(symbolic),
                  std::make_shared<const std::vector<index_t>>(
                      std::move(value_source))};
}

}  // namespace mfgpu
