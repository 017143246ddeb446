#include "multifrontal/parallel_solve.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dense/blas.hpp"
#include "gpusim/gpublas.hpp"  // host_assembly_rate
#include "multifrontal/frontal.hpp"
#include "obs/obs.hpp"
#include "sched/thread_pool.hpp"
#include "symbolic/tree_stats.hpp"

namespace mfgpu {

namespace {

double pivot_triangle_entries(index_t k) {
  return 0.5 * static_cast<double>(k) * static_cast<double>(k + 1);
}

/// Per-supernode cost of one sweep task: the factor entries it streams
/// (once per block) and the x rows it gathers/scatters (once per RHS).
/// Summed over all tasks, one sweep streams every stored factor entry
/// exactly once and moves every update row once per RHS — which is how the
/// one-thread leveled estimate reproduces estimated_solve_seconds(sym,
/// num_rhs).
struct TaskWork {
  double entries = 0.0;
  double rows = 0.0;
};

/// Forward prices: a supernode's pivot triangle, plus the source width and
/// one row of x for every update row (of any source) that lands in its
/// columns. Every addend is a whole number, so the sums are exact in any
/// order: these are the estimate's prices whatever the sweep's form.
std::vector<TaskWork> forward_work(const SymbolicFactor& sym) {
  const auto snodes = sym.supernodes();
  std::vector<TaskWork> work(snodes.size());
  for (std::size_t s = 0; s < snodes.size(); ++s) {
    work[s].entries = pivot_triangle_entries(snodes[s].width());
  }
  for (const SupernodeInfo& sn : snodes) {
    const double k = static_cast<double>(sn.width());
    for (const index_t row : sn.update_rows) {
      TaskWork& w = work[static_cast<std::size_t>(sym.snode_of_col(row))];
      w.entries += k;
      w.rows += 1.0;
    }
  }
  return work;
}

std::vector<TaskWork> backward_work(const SymbolicFactor& sym) {
  std::vector<TaskWork> work(static_cast<std::size_t>(sym.num_supernodes()));
  for (index_t s = 0; s < sym.num_supernodes(); ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    TaskWork& w = work[static_cast<std::size_t>(s)];
    const double m = static_cast<double>(sn.num_update_rows());
    w.entries =
        pivot_triangle_entries(sn.width()) + m * static_cast<double>(sn.width());
    w.rows = m;
  }
  return work;
}

/// Cut the tree into subtree groups (subtree_groups) and build the two
/// sweep DAGs over the group forest.
void build_groups(const SymbolicFactor& sym, SolveSchedule& sched) {
  const index_t nsup = sched.num_supernodes;

  // Each supernode's work in both sweeps at one right-hand side: factor
  // entries plus update rows.
  std::vector<double> own(static_cast<std::size_t>(nsup));
  {
    const std::vector<TaskWork> fwd = forward_work(sym);
    const std::vector<TaskWork> bwd = backward_work(sym);
    for (std::size_t i = 0; i < own.size(); ++i) {
      own[i] = fwd[i].entries + fwd[i].rows + bwd[i].entries + bwd[i].rows;
    }
  }
  sched.group_ptr = subtree_groups(sym, own);
  const index_t ngroups = sched.num_groups();
  std::vector<index_t> group_of(static_cast<std::size_t>(nsup));
  for (index_t g = 0; g < ngroups; ++g) {
    double work = 0.0;
    for (index_t m = sched.group_ptr[static_cast<std::size_t>(g)];
         m < sched.group_ptr[static_cast<std::size_t>(g) + 1]; ++m) {
      const auto i = static_cast<std::size_t>(m);
      group_of[i] = g;
      work += own[i];
    }
    sched.group_work.push_back(work);
  }

  // Forward edges: each group's top hands its update to its parent's group.
  sched.forward = condense_tree(sym, group_of, ngroups);

  // Backward edges: the forward ones reversed.
  const CondensedDag& fw = sched.forward;
  CondensedDag& bw = sched.backward;
  bw.succ_ptr.assign(static_cast<std::size_t>(ngroups) + 1, 0);
  bw.num_deps.assign(static_cast<std::size_t>(ngroups), 0);
  bw.succ.resize(fw.succ.size());
  for (const index_t h : fw.succ) ++bw.succ_ptr[static_cast<std::size_t>(h) + 1];
  for (index_t g = 0; g < ngroups; ++g) {
    bw.succ_ptr[static_cast<std::size_t>(g) + 1] +=
        bw.succ_ptr[static_cast<std::size_t>(g)];
    bw.num_deps[static_cast<std::size_t>(g)] =
        fw.succ_ptr[static_cast<std::size_t>(g) + 1] -
        fw.succ_ptr[static_cast<std::size_t>(g)];
  }
  std::vector<index_t> cursor(bw.succ_ptr.begin(), bw.succ_ptr.end() - 1);
  for (index_t g = 0; g < ngroups; ++g) {
    for (index_t e = fw.succ_ptr[static_cast<std::size_t>(g)];
         e < fw.succ_ptr[static_cast<std::size_t>(g) + 1]; ++e) {
      const index_t h = fw.succ[static_cast<std::size_t>(e)];
      bw.succ[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(h)]++)] = g;
    }
  }
}

/// Where each forward update block lives. Inside a group the blocks form
/// the walk's LIFO stack: a supernode's children sit right above its own
/// block (from the bottom for the group's top), in ascending order, so a
/// supernode writes its block while its children's blocks above it are
/// still being read, and a block stays in place until its parent consumed
/// it. A group's top hands its block to another task: those blocks get the
/// shared area, in group order.
void build_update_layout(const SymbolicFactor& sym, SolveSchedule& sched) {
  const index_t nsup = sched.num_supernodes;
  const auto snodes = sym.supernodes();
  auto rows_of = [&](index_t s) {
    return snodes[static_cast<std::size_t>(s)].num_update_rows();
  };
  std::vector<char> top(static_cast<std::size_t>(nsup), 0);
  for (std::size_t g = 1; g < sched.group_ptr.size(); ++g) {
    top[static_cast<std::size_t>(sched.group_ptr[g] - 1)] = 1;
  }
  sched.update_offset.assign(static_cast<std::size_t>(nsup), 0);
  // Descending postorder places every parent before its children.
  for (index_t s = nsup - 1; s >= 0; --s) {
    const auto i = static_cast<std::size_t>(s);
    index_t next = top[i] ? 0 : sched.update_offset[i] + rows_of(s);
    for (const index_t c : sym.children(s)) {
      if (top[static_cast<std::size_t>(c)]) continue;
      sched.update_offset[static_cast<std::size_t>(c)] = next;
      next += rows_of(c);
      sched.stack_rows = std::max(sched.stack_rows, next);
    }
  }
  for (index_t g = 0; g < sched.num_groups(); ++g) {
    const index_t t = sched.group_ptr[static_cast<std::size_t>(g) + 1] - 1;
    if (snodes[static_cast<std::size_t>(t)].parent == -1) continue;
    sched.update_offset[static_cast<std::size_t>(t)] = sched.shared_rows;
    sched.shared_rows += rows_of(t);
  }
}

}  // namespace

SolveSchedule build_solve_schedule(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  SolveSchedule sched;
  sched.num_supernodes = nsup;
  sched.num_levels = sym.num_levels();

  // Level-major lists via counting sort (keeps supernode order within a
  // level ascending).
  sched.level_ptr.assign(static_cast<std::size_t>(sched.num_levels) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    ++sched.level_ptr[static_cast<std::size_t>(sym.height(s)) + 1];
  }
  for (std::size_t l = 1; l < sched.level_ptr.size(); ++l) {
    sched.level_ptr[l] += sched.level_ptr[l - 1];
    sched.max_level_width =
        std::max(sched.max_level_width,
                 sched.level_ptr[l] - sched.level_ptr[l - 1]);
  }
  sched.level_nodes.resize(static_cast<std::size_t>(nsup));
  {
    std::vector<index_t> cursor(sched.level_ptr.begin(),
                                sched.level_ptr.end() - 1);
    for (index_t s = 0; s < nsup; ++s) {
      sched.level_nodes[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(sym.height(s))]++)] = s;
    }
  }
  for (const SupernodeInfo& sn : sym.supernodes()) {
    sched.max_update_rows =
        std::max(sched.max_update_rows, sn.num_update_rows());
  }
  build_groups(sym, sched);
  build_update_layout(sym, sched);
  return sched;
}

namespace {

double host_task_seconds(const TaskWork& work, index_t num_rhs) {
  return (work.entries + static_cast<double>(num_rhs) * work.rows) /
         host_assembly_rate();
}

/// One worker's numeric scratch, sized once per solve from the schedule,
/// so no task allocates: the forward sweep's update stack, which the
/// backward sweep reuses for its gather of update rows, and a child's
/// relative indices.
struct SolveWorker {
  std::unique_ptr<double[]> block;
  std::unique_ptr<index_t[]> rel;
};

/// Rows [row0, row0 + rows) of a panel, all its columns.
MatrixView<const double> panel_rows(const MatrixView<double>& panel,
                                    index_t row0, index_t rows) {
  return MatrixView<const double>(panel.data() + row0, rows, panel.cols(),
                                  panel.ld());
}

/// Forward task of supernode s, a member of the group whose postorder range
/// starts at `group_begin` and ends at `group_end`. Its front block is
/// X[s] on top of its m x r update block U. The children's update blocks
/// are extend-added into it in ascending child order, then L11 X[s] = X[s]
/// and U -= L21 X[s]; U is left for the parent. A block lives on the
/// worker's stack when its parent is in its group, else in `shared`.
void forward_task(const SymbolicFactor& sym, const SolveSchedule& sched,
                  std::span<const MatrixView<double>> panels, index_t s,
                  index_t group_begin, index_t group_end, MatrixView<double> x,
                  SolveWorker& worker, double* shared) {
  const index_t r = x.cols();
  const auto update_of = [&](index_t c, bool stacked) {
    return (stacked ? worker.block.get() : shared) +
           sched.update_offset[static_cast<std::size_t>(c)] * r;
  };
  const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
  const index_t k = sn.width();
  const index_t m = sn.num_update_rows();
  const MatrixView<double> xs = x.block(sn.first_col, 0, k, r);
  const MatrixView<double> u(update_of(s, s + 1 < group_end), m, r,
                             std::max<index_t>(m, 1));
  std::fill_n(u.data(), m * r, 0.0);
  index_t* const rel = worker.rel.get();
  for (const index_t c : sym.children(s)) {
    const std::span<const index_t> rows =
        sym.supernodes()[static_cast<std::size_t>(c)].update_rows;
    const auto mc = static_cast<index_t>(rows.size());
    // Child rows are sorted: the ones inside s's columns come first and
    // land in X[s], the rest in U (relative indices shifted by k).
    index_t split = 0;
    while (split < mc && rows[static_cast<std::size_t>(split)] < sn.last_col) {
      ++split;
    }
    RowMerge merge(sn);
    for (index_t t = 0; t < mc; ++t) {
      rel[t] = merge.next(rows[static_cast<std::size_t>(t)]);
    }
    const double* uc = update_of(c, c >= group_begin);
    for (index_t col = 0; col < r; ++col, uc += mc) {
      double* const xcol = &xs(0, col);
      double* const ucol = u.data() + col * u.ld();
      for (index_t t = 0; t < split; ++t) xcol[rel[t]] += uc[t];
      for (index_t t = split; t < mc; ++t) ucol[rel[t] - k] += uc[t];
    }
  }
  const MatrixView<const double> l =
      panel_rows(panels[static_cast<std::size_t>(s)], 0, k + m);
  trsm<double>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 1.0,
               l.block(0, 0, k, k), xs);
  if (m > 0) {
    gemm<double>(Trans::NoTrans, Trans::NoTrans, -1.0, l.block(k, 0, m, k), xs,
                 1.0, u);
  }
}

/// Backward task of supernode s: gather G = X[update rows], then
/// X[s] -= L21^T G and L11^T X[s] = X[s].
void backward_task(const SupernodeInfo& sn, const MatrixView<double>& panel,
                   MatrixView<double> x, SolveWorker& worker) {
  const index_t r = x.cols();
  const index_t k = sn.width();
  const index_t m = sn.num_update_rows();
  const MatrixView<const double> l = panel_rows(panel, 0, k + m);
  const MatrixView<double> xs = x.block(sn.first_col, 0, k, r);
  if (m > 0) {
    const MatrixView<double> g(worker.block.get(), m, r, m);
    for (index_t c = 0; c < r; ++c) {
      for (index_t t = 0; t < m; ++t) {
        g(t, c) = x(sn.update_rows[static_cast<std::size_t>(t)], c);
      }
    }
    gemm<double>(Trans::Transpose, Trans::NoTrans, -1.0, l.block(k, 0, m, k),
                 g, 1.0, xs);
  }
  trsm<double>(Side::Left, Uplo::Lower, Trans::Transpose, Diag::NonUnit, 1.0,
               l.block(0, 0, k, k), xs);
}

/// One sweep over the grouped DAG: on the pool's first `threads` workers,
/// or on one thread by walking the groups in dependency order (ascending
/// for the forward sweep, descending for the backward one).
void run_sweep(const SolveSchedule& sched, const CondensedDag& sweep,
               bool forward, ThreadPool* pool, int threads,
               const std::function<void(index_t, int)>& body) {
  const index_t ngroups = sched.num_groups();
  if (threads == 1) {
    for (index_t i = 0; i < ngroups; ++i) body(forward ? i : ngroups - 1 - i, 0);
    return;
  }
  GraphDag dag;
  dag.succ_ptr = sweep.succ_ptr;
  dag.succ = sweep.succ;
  dag.num_deps = sweep.num_deps;
  dag.priority = sched.group_work;
  pool->run_dag(dag, body, threads);
}

void run_sweeps(const SymbolicFactor& sym, const SolveSchedule& sched,
                std::span<const MatrixView<double>> panels, MatrixView<double> x,
                ThreadPool* pool, int threads) {
  const auto r = static_cast<std::size_t>(x.cols());
  std::vector<SolveWorker> workers(static_cast<std::size_t>(threads));
  for (auto& w : workers) {
    w.block = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(
            std::max(sched.stack_rows, sched.max_update_rows)) * r);
    w.rel = std::make_unique_for_overwrite<index_t[]>(
        static_cast<std::size_t>(sched.max_update_rows));
  }
  const auto shared = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(sched.shared_rows) * r);
  {
    obs::ScopedSpan span("solve", "forward_sweep");
    span.set_arg(0, "levels", sched.num_levels);
    span.set_arg(1, "groups", sched.num_groups());
    run_sweep(sched, sched.forward, true, pool, threads, [&](index_t g, int w) {
      const index_t begin = sched.group_ptr[static_cast<std::size_t>(g)];
      const index_t end = sched.group_ptr[static_cast<std::size_t>(g) + 1];
      for (index_t s = begin; s < end; ++s) {
        forward_task(sym, sched, panels, s, begin, end, x,
                     workers[static_cast<std::size_t>(w)], shared.get());
      }
    });
  }
  {
    obs::ScopedSpan span("solve", "backward_sweep");
    span.set_arg(0, "levels", sched.num_levels);
    span.set_arg(1, "groups", sched.num_groups());
    run_sweep(sched, sched.backward, false, pool, threads, [&](index_t g, int w) {
      for (index_t s = sched.group_ptr[static_cast<std::size_t>(g) + 1] - 1;
           s >= sched.group_ptr[static_cast<std::size_t>(g)]; --s) {
        backward_task(sym.supernodes()[static_cast<std::size_t>(s)],
                      panels[static_cast<std::size_t>(s)], x,
                      workers[static_cast<std::size_t>(w)]);
      }
    });
  }
}

}  // namespace

void for_each_column(index_t count, const ParallelSolveOptions& options,
                     const std::function<void(index_t, int)>& body) {
  if (options.threads == 1 || count == 1) {
    for (index_t j = 0; j < count; ++j) body(j, 0);
    return;
  }
  const std::vector<index_t> succ_ptr(static_cast<std::size_t>(count) + 1, 0);
  const std::vector<index_t> num_deps(static_cast<std::size_t>(count), 0);
  GraphDag dag;
  dag.succ_ptr = succ_ptr;
  dag.num_deps = num_deps;
  options.pool->run_dag(
      dag, body, static_cast<int>(std::min<index_t>(options.threads, count)));
}

Matrix<double> solve(const Analysis& analysis, const Factorization& factor,
                     const Matrix<double>& b, index_t num_rhs,
                     const ParallelSolveOptions& options) {
  const SymbolicFactor& sym = analysis.symbolic;
  const index_t n = sym.n();
  MFGPU_CHECK(factor.numeric, "solve: factor has no numeric data");
  MFGPU_CHECK(static_cast<index_t>(factor.panels.size()) ==
                  sym.num_supernodes(),
              "solve: factor does not match the analysis");
  MFGPU_CHECK(b.rows() == n, "solve: rhs row count mismatch");
  MFGPU_CHECK(num_rhs >= 1 && num_rhs <= b.cols(),
              "solve: num_rhs out of range");

  SolveSchedule local;
  const SolveSchedule* sched = options.schedule;
  if (sched == nullptr) {
    local = build_solve_schedule(sym);
    sched = &local;
  }
  MFGPU_CHECK(sched->num_supernodes == sym.num_supernodes(),
              "solve: schedule does not match the analysis");

  const int threads = std::max(1, options.threads);
  std::optional<ThreadPool> transient;
  ThreadPool* pool = options.pool;
  if (threads > 1 && pool == nullptr) pool = &transient.emplace(threads);
  MFGPU_CHECK(threads == 1 || pool->num_threads() >= threads,
              "solve: pool has fewer threads than the solve asks for");

  obs::ScopedSpan span("solve", "blocked_solve");
  span.set_arg(0, "rhs", num_rhs);
  span.set_arg(1, "threads", threads);
  span.set_arg(2, "levels", sched->num_levels);

  // Permute in and out one column per task, gathering through the
  // permutation so that each column is written in order.
  ParallelSolveOptions columns = options;
  columns.threads = threads;
  columns.pool = pool;
  const auto un = static_cast<std::size_t>(n);
  Matrix<double> x(n, num_rhs);
  for_each_column(num_rhs, columns, [&](index_t col, int) {
    const std::span<const index_t> old_of_new = analysis.perm.old_of_new();
    const double* const in = b.data() + col * n;
    double* const out = x.data() + col * n;
    for (std::size_t i = 0; i < un; ++i) out[i] = in[old_of_new[i]];
  });

  run_sweeps(sym, *sched, factor.panels, x.view(), pool, threads);

  std::vector<std::vector<double>> scratch(
      static_cast<std::size_t>(std::min<index_t>(threads, num_rhs)));
  for_each_column(num_rhs, columns, [&](index_t col, int w) {
    const std::span<const index_t> new_of_old = analysis.perm.new_of_old();
    std::vector<double>& column = scratch[static_cast<std::size_t>(w)];
    column.resize(un);
    double* const xc = x.data() + col * n;
    for (std::size_t i = 0; i < un; ++i) column[i] = xc[new_of_old[i]];
    std::copy(column.begin(), column.end(), xc);
  });

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.increment("solve.calls");
    metrics.observe("solve.rhs", static_cast<double>(num_rhs));
    metrics.gauge_set("solve.levels", static_cast<double>(sched->num_levels));
    metrics.gauge_set("solve.threads", static_cast<double>(threads));
    metrics.add("solve.sweep_tasks",
                2.0 * static_cast<double>(sched->num_groups()));
  }
  return x;
}

std::vector<double> solve(const Analysis& analysis, const Factorization& factor,
                          std::span<const double> b) {
  const index_t n = analysis.symbolic.n();
  MFGPU_CHECK(static_cast<index_t>(b.size()) == n, "solve: size mismatch");
  Matrix<double> rhs(n, 1);
  std::copy(b.begin(), b.end(), rhs.data());
  const Matrix<double> x = solve(analysis, factor, rhs, 1);
  return std::vector<double>(x.data(), x.data() + n);
}

double estimated_solve_seconds(const SymbolicFactor& sym, index_t num_rhs) {
  MFGPU_CHECK(num_rhs >= 1, "estimated_solve_seconds: num_rhs must be >= 1");
  // Factor panels are streamed once per blocked pass; the per-rhs cost is
  // the gather/scatter of each supernode's update rows.
  double update_rows = 0.0;
  for (const auto& sn : sym.supernodes()) {
    update_rows += 2.0 * static_cast<double>(sn.num_update_rows());
  }
  const double stream = 2.0 * static_cast<double>(sym.factor_nnz());
  return (stream + static_cast<double>(num_rhs) * update_rows) /
         host_assembly_rate();
}

double estimated_solve_seconds(const SymbolicFactor& sym,
                               const SolveSchedule& schedule, index_t num_rhs,
                               int threads) {
  MFGPU_CHECK(num_rhs >= 1, "estimated_solve_seconds: num_rhs must be >= 1");
  MFGPU_CHECK(threads >= 1, "estimated_solve_seconds: threads must be >= 1");
  const double t = static_cast<double>(threads);
  double total = 0.0;
  for (const auto& work : {forward_work(sym), backward_work(sym)}) {
    for (index_t l = 0; l < schedule.num_levels; ++l) {
      double level_sum = 0.0;
      double level_max = 0.0;
      for (index_t i = schedule.level_ptr[static_cast<std::size_t>(l)];
           i < schedule.level_ptr[static_cast<std::size_t>(l) + 1]; ++i) {
        const double cost = host_task_seconds(
            work[static_cast<std::size_t>(
                schedule.level_nodes[static_cast<std::size_t>(i)])],
            num_rhs);
        level_sum += cost;
        level_max = std::max(level_max, cost);
      }
      total += std::max(level_max, level_sum / t);
    }
  }
  return total;
}

}  // namespace mfgpu
