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
  const auto counts = [&] {
    obs::ScopedSpan counts_span("symbolic", "column_counts");
    return factor_column_counts(a_permuted, col_parent_);
  }();
  const auto part = [&] {
    obs::ScopedSpan snode_span("symbolic", "fundamental_supernodes");
    return fundamental_supernodes(col_parent_, counts);
  }();
  {
    obs::ScopedSpan structures_span("symbolic", "row_structures");
    compute_structures(a_permuted, part);
  }

  // Sanity: the fundamental supernode structure must reproduce the column
  // counts exactly (update rows + remaining columns of the supernode).
  for (const auto& sn : snodes_) {
    const index_t expected = counts[static_cast<std::size_t>(sn.first_col)];
    const index_t actual = sn.width() + sn.num_update_rows();
    MFGPU_CHECK(actual == expected,
                "SymbolicFactor: supernode structure disagrees with column counts");
  }

  {
    obs::ScopedSpan relax_span("symbolic", "amalgamate");
    amalgamate(options.relax);
  }
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
                                        const SupernodePartition& part) {
  const index_t nsup = part.count();
  snodes_.assign(static_cast<std::size_t>(nsup), SupernodeInfo{});
  snode_of_col_ = part.snode_of_col;

  std::vector<index_t> mark(static_cast<std::size_t>(n_), -1);
  std::vector<std::vector<index_t>> snode_children(static_cast<std::size_t>(nsup));

  // Supernodes are numbered by increasing first column; because columns are
  // postordered, every child supernode has a smaller index than its parent,
  // so one ascending sweep sees children before parents.
  for (index_t s = 0; s < nsup; ++s) {
    auto& sn = snodes_[static_cast<std::size_t>(s)];
    sn.first_col = part.start[static_cast<std::size_t>(s)];
    sn.last_col = part.start[static_cast<std::size_t>(s) + 1];

    auto& rows = sn.update_rows;
    auto add_row = [&](index_t r) {
      if (r >= sn.last_col && mark[static_cast<std::size_t>(r)] != s) {
        mark[static_cast<std::size_t>(r)] = s;
        rows.push_back(r);
      }
    };
    for (index_t j = sn.first_col; j < sn.last_col; ++j) {
      for (index_t r : a.column_rows(j)) add_row(r);
    }
    for (index_t c : snode_children[static_cast<std::size_t>(s)]) {
      for (index_t r : snodes_[static_cast<std::size_t>(c)].update_rows) {
        add_row(r);
      }
    }
    std::sort(rows.begin(), rows.end());

    if (!rows.empty()) {
      sn.parent = snode_of_col_[static_cast<std::size_t>(rows.front())];
      MFGPU_CHECK(sn.parent > s, "SymbolicFactor: parent must follow child");
      snode_children[static_cast<std::size_t>(sn.parent)].push_back(s);
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
    // beyond the parent's column range.
    std::vector<index_t> merged;
    merged.reserve(par.update_rows.size() + child.update_rows.size());
    std::vector<index_t> child_beyond;
    for (index_t r : child.update_rows) {
      if (r >= par.last_col) child_beyond.push_back(r);
    }
    std::set_union(par.update_rows.begin(), par.update_rows.end(),
                   child_beyond.begin(), child_beyond.end(),
                   std::back_inserter(merged));

    if (!should_amalgamate(child.width(), child.num_update_rows(), par.width(),
                           par.num_update_rows(),
                           static_cast<index_t>(merged.size()), relax)) {
      continue;
    }

    par.first_col = child.first_col;
    par.update_rows = std::move(merged);
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
  MFGPU_CHECK(fill_perm.n() == a.n(), "analyze: permutation size mismatch");
  obs::ScopedSpan span("symbolic", "analyze");
  span.set_arg(0, "n", a.n());
  std::vector<index_t> value_source;
  SparseSpd permuted = a.permuted(fill_perm.new_of_old(), &value_source);

  // Postorder the elimination tree and fold it into the permutation; the
  // postorder is an equivalent reordering (same fill) that makes supernode
  // columns contiguous and the update stack LIFO.
  const auto parent = elimination_tree(permuted);
  const auto post = postorder_forest(parent);
  bool already = true;
  for (index_t p = 0; p < static_cast<index_t>(post.size()); ++p) {
    if (post[static_cast<std::size_t>(p)] != p) { already = false; break; }
  }
  Permutation total = fill_perm;
  if (!already) {
    // post[p] = old column at postorder position p, i.e. old_of_new.
    const Permutation post_perm =
        Permutation::from_elimination_order(std::vector<index_t>(post));
    // Compose: new = post(fill(old)).
    std::vector<index_t> composed(static_cast<std::size_t>(a.n()));
    const auto fill_map = fill_perm.new_of_old();
    const auto post_map = post_perm.new_of_old();
    for (index_t i = 0; i < a.n(); ++i) {
      composed[static_cast<std::size_t>(i)] = post_map[static_cast<std::size_t>(
          fill_map[static_cast<std::size_t>(i)])];
    }
    total = Permutation(std::move(composed));
    permuted = a.permuted(total.new_of_old(), &value_source);
  }

  SymbolicFactor symbolic(permuted, options);
  return Analysis{std::move(total), std::move(permuted), std::move(symbolic),
                  std::make_shared<const std::vector<index_t>>(
                      std::move(value_source))};
}

}  // namespace mfgpu
