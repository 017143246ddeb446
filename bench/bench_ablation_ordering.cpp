// Ablation — fill-reducing ordering choice (the substrate the multifrontal
// method stands on): natural order vs RCM vs quotient-graph minimum degree
// vs geometric nested dissection, measured by factor size, factor flops,
// tree shape and serial factorization time on scaled-down testset matrices.
//
// Emits BENCH_ablation_ordering.json with one metric group per (matrix,
// ordering), named "<matrix>/<ordering>/<metric>". nnz(L), flops,
// supernodes, etree height and the simulated serial time are deterministic
// and gated exact; the ordering and symbolic wall seconds are info.
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common.hpp"

#include "ordering/minimum_degree.hpp"
#include "ordering/rcm.hpp"

using namespace mfgpu;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Edges on the longest leaf-to-root path of the column elimination tree.
index_t etree_height(std::span<const index_t> parent) {
  // Parents follow children in a postordered tree, so one reverse sweep
  // assigns every column its depth.
  std::vector<index_t> depth(parent.size(), 0);
  index_t height = 0;
  for (std::size_t j = parent.size(); j-- > 0;) {
    if (parent[j] != -1) depth[j] = depth[static_cast<std::size_t>(parent[j])] + 1;
    height = std::max(height, depth[j]);
  }
  return height;
}

}  // namespace

int main() {
  // MD's quotient graph is the costly one; run this ablation at a reduced
  // scale so all four orderings finish quickly.
  auto problems = make_paper_testset(std::min(0.45, bench::bench_scale()));

  Table table("Ablation — ordering quality",
              {"matrix", "ordering", "nnz(L)", "factor flops", "supernodes",
               "etree height", "serial (s)", "order (s)", "symbolic (s)"});
  obs::BenchRecord record = bench::make_bench_record("ablation_ordering");
  for (std::size_t which : {std::size_t{0}, std::size_t{1}}) {
    GridProblem& p = problems[which];
    const SymmetricGraph graph = build_graph(p.matrix);
    MinimumDegreeOptions no_supervars;
    no_supervars.supervariables = false;
    struct Case {
      const char* name;  ///< table label
      const char* key;   ///< metric-name component
      std::function<Permutation()> order;
    };
    const Case cases[] = {
        {"natural", "natural", [&] { return Permutation::identity(p.matrix.n()); }},
        {"rcm", "rcm", [&] { return reverse_cuthill_mckee(graph); }},
        {"minimum degree", "md", [&] { return minimum_degree(graph); }},
        {"md (no supervariables)", "md_nosv",
         [&] { return minimum_degree(graph, no_supervars); }},
        {"nested dissection", "nd", [&] { return nested_dissection(p.coords); }},
    };
    for (const Case& c : cases) {
      auto t0 = Clock::now();
      const Permutation perm = c.order();
      const double order_s = seconds_since(t0);
      t0 = Clock::now();
      const Analysis an = analyze(p.matrix, perm);
      const double symbolic_s = seconds_since(t0);
      PolicyExecutor p1(Policy::P1);
      const FactorizationTrace trace =
          bench::run_trace(an, p1, /*use_device=*/false);
      const index_t height = etree_height(an.symbolic.column_parent());
      table.add_row({p.name, std::string(c.name), an.symbolic.factor_nnz(),
                     an.symbolic.factor_flops(), an.symbolic.num_supernodes(),
                     height, trace.total_time, order_s, symbolic_s});

      const std::string prefix = p.name + "/" + c.key + "/";
      using obs::MetricDirection;
      record.add_metric(prefix + "factor_nnz",
                        static_cast<double>(an.symbolic.factor_nnz()),
                        MetricDirection::Exact);
      record.add_metric(prefix + "factor_flops", an.symbolic.factor_flops(),
                        MetricDirection::Exact);
      record.add_metric(prefix + "supernodes",
                        static_cast<double>(an.symbolic.num_supernodes()),
                        MetricDirection::Exact);
      record.add_metric(prefix + "etree_height", static_cast<double>(height),
                        MetricDirection::Exact);
      record.add_metric(prefix + "serial_sim_s", trace.total_time,
                        MetricDirection::Exact);
      record.add_metric(prefix + "ordering_wall_s", order_s,
                        MetricDirection::Info);
      record.add_metric(prefix + "symbolic_wall_s", symbolic_s,
                        MetricDirection::Info);
    }
  }
  bench::emit(table, "ablation_ordering.csv");
  bench::emit_bench_record(record);
  return 0;
}
