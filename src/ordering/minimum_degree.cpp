#include "ordering/minimum_degree.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace_session.hpp"

namespace mfgpu {
namespace {

/// Indexed binary min-heap of the live variables keyed by (degree, vertex):
/// the decrease-key heap of the streaming partitioners' MinHeap, where a
/// position index lets a key change move its vertex in place. Every live
/// variable has exactly one entry, so the top is the exact minimum-degree
/// variable, ties going to the smaller vertex.
class DegreeHeap {
 public:
  explicit DegreeHeap(std::vector<index_t> degree)
      : key_(std::move(degree)), heap_(key_.size()), pos_(key_.size()) {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = static_cast<index_t>(i);
      pos_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  bool empty() const noexcept { return heap_.empty(); }

  index_t pop() {
    const index_t top = heap_.front();
    remove(top);
    return top;
  }

  void update(index_t v, index_t key) {
    key_[static_cast<std::size_t>(v)] = key;
    const std::size_t i = pos_[static_cast<std::size_t>(v)];
    sift_up(i);
    sift_down(pos_[static_cast<std::size_t>(v)]);
  }

  void remove(index_t v) {
    const std::size_t i = pos_[static_cast<std::size_t>(v)];
    const index_t last = heap_.back();
    heap_.pop_back();
    if (last == v) return;
    heap_[i] = last;
    pos_[static_cast<std::size_t>(last)] = i;
    sift_up(i);
    sift_down(pos_[static_cast<std::size_t>(last)]);
  }

 private:
  bool less(index_t a, index_t b) const {
    const index_t ka = key_[static_cast<std::size_t>(a)];
    const index_t kb = key_[static_cast<std::size_t>(b)];
    return ka < kb || (ka == kb && a < b);
  }

  void place(std::size_t i, index_t v) {
    heap_[i] = v;
    pos_[static_cast<std::size_t>(v)] = i;
  }

  void sift_up(std::size_t i) {
    const index_t v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(v, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }

  void sift_down(std::size_t i) {
    const index_t v = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], v)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, v);
  }

  std::vector<index_t> key_;
  std::vector<index_t> heap_;
  std::vector<std::size_t> pos_;
};

class QuotientGraph {
 public:
  explicit QuotientGraph(const SymmetricGraph& g)
      : adj_vars_(static_cast<std::size_t>(g.n)),
        adj_elems_(static_cast<std::size_t>(g.n)),
        elem_vars_(static_cast<std::size_t>(g.n)),
        weight_(static_cast<std::size_t>(g.n), 1),
        members_(static_cast<std::size_t>(g.n)),
        eliminated_(static_cast<std::size_t>(g.n), 0),
        absorbed_(static_cast<std::size_t>(g.n), 0),
        marker_(static_cast<std::size_t>(g.n), 0),
        pivot_of_(static_cast<std::size_t>(g.n), -1) {
    for (index_t v = 0; v < g.n; ++v) {
      const auto nbrs = g.neighbors(v);
      adj_vars_[static_cast<std::size_t>(v)].assign(nbrs.begin(), nbrs.end());
      members_[static_cast<std::size_t>(v)].push_back(v);
    }
  }

  bool gone(index_t v) const {
    return eliminated_[static_cast<std::size_t>(v)] != 0;
  }
  /// The original vertices this supervariable represents (itself included).
  const std::vector<index_t>& members(index_t v) const {
    return members_[static_cast<std::size_t>(v)];
  }

  /// Eliminate pivot `p`; returns the surviving variables whose structure
  /// changed (the pivot structure Lp).
  const std::vector<index_t>& eliminate(index_t p) {
    eliminated_[static_cast<std::size_t>(p)] = 1;
    pivot_ = p;

    // Pivot structure Lp: remaining variable neighbours of p plus the
    // variables of every adjacent element (those elements get absorbed).
    // Lp is marked with the pivot for the rest of this step.
    pivot_structure_.clear();
    auto absorb_var = [&](index_t u) {
      if (gone(u)) return;
      if (pivot_of_[static_cast<std::size_t>(u)] != p) {
        pivot_of_[static_cast<std::size_t>(u)] = p;
        pivot_structure_.push_back(u);
      }
    };
    for (index_t u : adj_vars_[static_cast<std::size_t>(p)]) absorb_var(u);
    for (index_t e : adj_elems_[static_cast<std::size_t>(p)]) {
      for (index_t u : elem_vars_[static_cast<std::size_t>(e)]) absorb_var(u);
      elem_vars_[static_cast<std::size_t>(e)].clear();  // absorbed into p
      elem_vars_[static_cast<std::size_t>(e)].shrink_to_fit();
      absorbed_[static_cast<std::size_t>(e)] = 1;
    }
    elem_vars_[static_cast<std::size_t>(p)] = pivot_structure_;

    // Update each variable in Lp: its variable list drops members of Lp and
    // p itself (now represented by element p); its element list drops the
    // absorbed elements and gains p.
    for (index_t u : pivot_structure_) {
      auto& vars = adj_vars_[static_cast<std::size_t>(u)];
      std::erase_if(vars, [&](index_t w) {
        return w == p || pivot_of_[static_cast<std::size_t>(w)] == p ||
               gone(w);
      });
      auto& elems = adj_elems_[static_cast<std::size_t>(u)];
      std::erase_if(elems, [&](index_t e) {
        return absorbed_[static_cast<std::size_t>(e)] != 0;
      });
      elems.push_back(p);
    }
    return pivot_structure_;
  }

  /// Weight of Lp after merging: every member's exact degree counts it.
  void weigh_pivot_structure() {
    pivot_weight_ = 0;
    for (index_t u : pivot_structure_) {
      if (!gone(u)) pivot_weight_ += weight_[static_cast<std::size_t>(u)];
    }
  }

  /// Exact weighted external degree of `u` in Lp (after
  /// weigh_pivot_structure): all of Lp but u itself, plus the variables
  /// outside Lp that u reaches directly or through its other elements.
  /// Eliminated and merged variables are dropped from the lists scanned.
  index_t compute_degree(index_t u) {
    ++stamp_;
    index_t deg = pivot_weight_ - weight_[static_cast<std::size_t>(u)];
    auto count = [&](index_t w) {
      if (pivot_of_[static_cast<std::size_t>(w)] != pivot_ &&
          marker_[static_cast<std::size_t>(w)] != stamp_) {
        marker_[static_cast<std::size_t>(w)] = stamp_;
        deg += weight_[static_cast<std::size_t>(w)];
      }
    };
    auto scan = [&](std::vector<index_t>& vars) {
      std::size_t keep = 0;
      for (std::size_t t = 0; t < vars.size(); ++t) {
        const index_t w = vars[t];
        if (gone(w)) continue;
        vars[keep++] = w;
        count(w);
      }
      vars.resize(keep);
    };
    scan(adj_vars_[static_cast<std::size_t>(u)]);
    for (index_t e : adj_elems_[static_cast<std::size_t>(u)]) {
      if (e != pivot_) scan(elem_vars_[static_cast<std::size_t>(e)]);
    }
    return deg;
  }

  /// Merge indistinguishable variables within the pivot structure; merged
  /// variables disappear from the graph and the heap (their neighbour sets
  /// are identical to the survivor's, so no list surgery is needed).
  /// Returns the survivors.
  const std::vector<index_t>& merge_indistinguishable(DegreeHeap& heap) {
    // Bucket by a cheap structure signature, then confirm exactly.
    keyed_.clear();
    for (index_t u : pivot_structure_) {
      if (!gone(u)) keyed_.emplace_back(signature(u), u);
    }
    std::sort(keyed_.begin(), keyed_.end());

    survivors_.clear();
    for (std::size_t i = 0; i < keyed_.size();) {
      std::size_t j = i;
      while (j < keyed_.size() && keyed_[j].first == keyed_[i].first) ++j;
      // Pairwise-confirm within the signature bucket.
      for (std::size_t a = i; a < j; ++a) {
        const index_t u = keyed_[a].second;
        if (gone(u)) continue;
        for (std::size_t b = a + 1; b < j; ++b) {
          const index_t w = keyed_[b].second;
          if (gone(w)) continue;
          if (structures_equal(u, w)) {
            merge_into(u, w);
            heap.remove(w);
          }
        }
        survivors_.push_back(u);
      }
      i = j;
    }
    return survivors_;
  }

 private:
  std::uint64_t signature(index_t u) {
    std::uint64_t h = 0;
    for (index_t w : adj_vars_[static_cast<std::size_t>(u)]) {
      if (!gone(w)) h += 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1);
    }
    for (index_t e : adj_elems_[static_cast<std::size_t>(u)]) {
      h ^= 0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(e + 1);
    }
    return h;
  }

  /// Whether `a` and `b` hold the same set of entries once the ones `skip`
  /// rejects are ignored. Stamps `a`'s entries, then checks `b`'s off
  /// (a second stamp value marks an entry matched, so repeats count once).
  template <typename Skip>
  bool same_set(const std::vector<index_t>& a, const std::vector<index_t>& b,
                Skip skip) {
    const index_t seen = ++stamp_;
    const index_t matched = ++stamp_;
    std::size_t distinct = 0;
    for (index_t x : a) {
      if (skip(x) || marker_[static_cast<std::size_t>(x)] == seen) continue;
      marker_[static_cast<std::size_t>(x)] = seen;
      ++distinct;
    }
    for (index_t x : b) {
      if (skip(x)) continue;
      index_t& mark = marker_[static_cast<std::size_t>(x)];
      if (mark == matched) continue;
      if (mark != seen) return false;
      mark = matched;
      if (distinct-- == 0) return false;
    }
    return distinct == 0;
  }

  /// Exact indistinguishability: identical element lists and identical
  /// variable neighbour sets modulo {u, w} themselves.
  bool structures_equal(index_t u, index_t w) {
    if (!same_set(adj_elems_[static_cast<std::size_t>(u)],
                  adj_elems_[static_cast<std::size_t>(w)],
                  [](index_t) { return false; })) {
      return false;
    }
    return same_set(adj_vars_[static_cast<std::size_t>(u)],
                    adj_vars_[static_cast<std::size_t>(w)], [&](index_t x) {
                      return gone(x) || x == u || x == w;
                    });
  }

  void merge_into(index_t survivor, index_t merged) {
    weight_[static_cast<std::size_t>(survivor)] +=
        weight_[static_cast<std::size_t>(merged)];
    auto& into = members_[static_cast<std::size_t>(survivor)];
    auto& from = members_[static_cast<std::size_t>(merged)];
    into.insert(into.end(), from.begin(), from.end());
    from.clear();
    from.shrink_to_fit();
    eliminated_[static_cast<std::size_t>(merged)] = 2;  // merged, not pivot
    adj_vars_[static_cast<std::size_t>(merged)].clear();
    adj_elems_[static_cast<std::size_t>(merged)].clear();
  }

  std::vector<std::vector<index_t>> adj_vars_;
  std::vector<std::vector<index_t>> adj_elems_;
  std::vector<std::vector<index_t>> elem_vars_;
  std::vector<index_t> weight_;
  std::vector<std::vector<index_t>> members_;
  std::vector<char> eliminated_;
  std::vector<char> absorbed_;
  std::vector<index_t> marker_;
  index_t stamp_ = 0;
  /// pivot_of_[u] == pivot_ marks u as a member of the current Lp.
  std::vector<index_t> pivot_of_;
  index_t pivot_ = -1;
  index_t pivot_weight_ = 0;
  std::vector<index_t> pivot_structure_;
  std::vector<std::pair<std::uint64_t, index_t>> keyed_;
  std::vector<index_t> survivors_;
};

}  // namespace

Permutation minimum_degree(const SymmetricGraph& g,
                           const MinimumDegreeOptions& options) {
  obs::ScopedSpan span("ordering", "minimum_degree");
  span.set_arg(0, "n", g.n);
  const index_t n = g.n;
  QuotientGraph qg(g);

  std::vector<index_t> degree(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<index_t>(g.neighbors(v).size());
  }
  DegreeHeap heap(std::move(degree));

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!heap.empty()) {
    const index_t v = heap.pop();
    // Emit the whole supervariable consecutively (its members share the
    // factor-column structure, so they seed one supernode).
    const auto& members = qg.members(v);
    order.insert(order.end(), members.begin(), members.end());

    const std::vector<index_t>* touched = &qg.eliminate(v);
    if (options.supervariables) touched = &qg.merge_indistinguishable(heap);
    qg.weigh_pivot_structure();
    for (index_t u : *touched) heap.update(u, qg.compute_degree(u));
  }
  MFGPU_CHECK(static_cast<index_t>(order.size()) == n,
              "minimum_degree: not all vertices eliminated");
  return Permutation::from_elimination_order(std::move(order));
}

}  // namespace mfgpu
