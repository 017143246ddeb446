#include "sched/task_graph.hpp"

#include "multifrontal/stack_arena.hpp"
#include "policy/policy.hpp"
#include "symbolic/postorder.hpp"

namespace mfgpu {

double TaskGraph::work(index_t t) const {
  return fu_total_ops(ms[static_cast<std::size_t>(t)],
                      ks[static_cast<std::size_t>(t)]) +
         assembly_entries[static_cast<std::size_t>(t)];
}

TaskGraph build_task_graph(const SymbolicFactor& sym,
                           const SparseSpd& permuted) {
  TaskGraph g;
  g.num_tasks = sym.num_supernodes();
  g.parent.resize(static_cast<std::size_t>(g.num_tasks));
  g.ms.resize(static_cast<std::size_t>(g.num_tasks));
  g.ks.resize(static_cast<std::size_t>(g.num_tasks));
  g.assembly_entries.assign(static_cast<std::size_t>(g.num_tasks), 0.0);

  const auto col_ptr = permuted.col_ptr();
  for (index_t s = 0; s < g.num_tasks; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    g.parent[static_cast<std::size_t>(s)] = sn.parent;
    const index_t m = sn.num_update_rows();
    const index_t k = sn.width();
    g.ms[static_cast<std::size_t>(s)] = m;
    g.ks[static_cast<std::size_t>(s)] = k;
    // Original entries scattered into the front.
    const double a_entries = static_cast<double>(
        col_ptr[static_cast<std::size_t>(sn.last_col)] -
        col_ptr[static_cast<std::size_t>(sn.first_col)]);
    // Pack own update + store the factor panel.
    const double own = static_cast<double>(packed_lower_size(m)) +
                       static_cast<double>((k + m) * k);
    g.assembly_entries[static_cast<std::size_t>(s)] += a_entries + own;
    // Extend-add of this update into the parent is charged to the parent.
    if (sn.parent != -1) {
      g.assembly_entries[static_cast<std::size_t>(sn.parent)] +=
          static_cast<double>(packed_lower_size(m));
    }
  }
  g.children = children_lists(g.parent);
  return g;
}

std::vector<double> bottom_levels(const TaskGraph& graph) {
  std::vector<double> bottom(static_cast<std::size_t>(graph.num_tasks), 0.0);
  for (index_t t = graph.num_tasks - 1; t >= 0; --t) {
    const index_t p = graph.parent[static_cast<std::size_t>(t)];
    bottom[static_cast<std::size_t>(t)] =
        graph.work(t) + ((p != -1) ? bottom[static_cast<std::size_t>(p)] : 0.0);
  }
  return bottom;
}

}  // namespace mfgpu
