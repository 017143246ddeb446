#include "multifrontal/parallel_solve.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dense/blas.hpp"
#include "gpusim/gpublas.hpp"  // host_assembly_rate
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

std::vector<TaskWork> forward_work(const SymbolicFactor& sym,
                                   const SolveSchedule& sched) {
  std::vector<TaskWork> work(static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
    TaskWork& w = work[static_cast<std::size_t>(s)];
    w.entries = pivot_triangle_entries(
        sym.supernodes()[static_cast<std::size_t>(s)].width());
    for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
         i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
      const SolveRun& run =
          sched.runs[static_cast<std::size_t>(
              sched.in_runs[static_cast<std::size_t>(i)])];
      const double len = static_cast<double>(run.t_end - run.t_begin);
      w.entries += len * static_cast<double>(
          sym.supernodes()[static_cast<std::size_t>(run.source)].width());
      w.rows += len;
    }
  }
  return work;
}

std::vector<TaskWork> backward_work(const SymbolicFactor& sym,
                                    const SolveSchedule& sched) {
  std::vector<TaskWork> work(static_cast<std::size_t>(sched.num_supernodes));
  for (index_t s = 0; s < sched.num_supernodes; ++s) {
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
/// grouped sweep DAGs from the runs that cross a group boundary.
void build_groups(const SymbolicFactor& sym, SolveSchedule& sched) {
  const index_t nsup = sched.num_supernodes;

  // Each supernode's work in both sweeps at one right-hand side: factor
  // entries plus update rows.
  std::vector<double> own(static_cast<std::size_t>(nsup));
  {
    const std::vector<TaskWork> fwd = forward_work(sym, sched);
    const std::vector<TaskWork> bwd = backward_work(sym, sched);
    for (std::size_t i = 0; i < own.size(); ++i) {
      own[i] = fwd[i].entries + fwd[i].rows + bwd[i].entries + bwd[i].rows;
    }
  }
  sched.group_ptr = subtree_groups(sym, own);
  std::vector<index_t> group_of(static_cast<std::size_t>(nsup));
  for (index_t g = 0; g < sched.num_groups(); ++g) {
    double work = 0.0;
    for (index_t m = sched.group_ptr[static_cast<std::size_t>(g)];
         m < sched.group_ptr[static_cast<std::size_t>(g) + 1]; ++m) {
      const auto i = static_cast<std::size_t>(m);
      group_of[i] = g;
      work += own[i];
    }
    sched.group_work.push_back(work);
  }

  // Forward edges: one per (source group, target group) pair of a run that
  // crosses groups. Targets are ancestors, so edges point up the tree.
  const index_t ngroups = sched.num_groups();
  SweepDag& fw = sched.forward;
  fw.succ_ptr.assign(static_cast<std::size_t>(ngroups) + 1, 0);
  fw.num_deps.assign(static_cast<std::size_t>(ngroups), 0);
  std::vector<index_t> targets;
  for (index_t g = 0; g < ngroups; ++g) {
    targets.clear();
    for (index_t run = sched.out_ptr[static_cast<std::size_t>(
             sched.group_ptr[static_cast<std::size_t>(g)])];
         run < sched.out_ptr[static_cast<std::size_t>(
             sched.group_ptr[static_cast<std::size_t>(g) + 1])];
         ++run) {
      const index_t h = group_of[static_cast<std::size_t>(
          sched.runs[static_cast<std::size_t>(run)].target)];
      if (h != g) targets.push_back(h);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (const index_t h : targets) {
      fw.succ.push_back(h);
      ++fw.num_deps[static_cast<std::size_t>(h)];
    }
    fw.succ_ptr[static_cast<std::size_t>(g) + 1] =
        static_cast<index_t>(fw.succ.size());
  }

  // Backward edges: the forward ones reversed.
  SweepDag& bw = sched.backward;
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

}  // namespace

SolveSchedule build_solve_schedule(const SymbolicFactor& sym) {
  const index_t nsup = sym.num_supernodes();
  SolveSchedule sched;
  sched.num_supernodes = nsup;
  SupernodeHeights heights = supernode_heights(sym);
  sched.level_of = std::move(heights.height);
  sched.num_levels = heights.num_levels;
  sched.out_ptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  sched.in_ptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  if (nsup == 0) {
    sched.level_ptr.assign(1, 0);
    build_groups(sym, sched);
    return sched;
  }

  // Level-major lists via counting sort (keeps supernode order within a
  // level ascending).
  sched.level_ptr.assign(static_cast<std::size_t>(sched.num_levels) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    ++sched.level_ptr[static_cast<std::size_t>(
        sched.level_of[static_cast<std::size_t>(s)]) + 1];
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
      const index_t l = sched.level_of[static_cast<std::size_t>(s)];
      sched.level_nodes[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(l)]++)] = s;
    }
  }

  // Dependency runs: walk each source's (sorted) update rows and cut a run
  // at every owner-supernode boundary. Sources ascending by construction.
  for (index_t s = 0; s < nsup; ++s) {
    const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
    const index_t m = sn.num_update_rows();
    index_t t = 0;
    while (t < m) {
      const index_t target =
          sym.snode_of_col(sn.update_rows[static_cast<std::size_t>(t)]);
      // last_col is one past the target's final column: extend the run only
      // while the rows stay strictly below it.
      const index_t last =
          sym.supernodes()[static_cast<std::size_t>(target)].last_col;
      index_t end = t + 1;
      while (end < m && sn.update_rows[static_cast<std::size_t>(end)] < last) {
        ++end;
      }
      sched.runs.push_back(SolveRun{s, target, t, end});
      ++sched.in_ptr[static_cast<std::size_t>(target) + 1];
      t = end;
    }
    sched.out_ptr[static_cast<std::size_t>(s) + 1] =
        static_cast<index_t>(sched.runs.size());
  }
  for (std::size_t i = 1; i < sched.in_ptr.size(); ++i) {
    sched.in_ptr[i] += sched.in_ptr[i - 1];
  }
  sched.in_runs.resize(sched.runs.size());
  {
    std::vector<index_t> cursor(sched.in_ptr.begin(), sched.in_ptr.end() - 1);
    for (std::size_t i = 0; i < sched.runs.size(); ++i) {
      const index_t target = sched.runs[i].target;
      sched.in_runs[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(target)]++)] =
          static_cast<index_t>(i);
    }
  }
  for (const SupernodeInfo& sn : sym.supernodes()) {
    sched.max_update_rows =
        std::max(sched.max_update_rows, sn.num_update_rows());
  }
  build_groups(sym, sched);
  return sched;
}

namespace {

double host_task_seconds(const TaskWork& work, index_t num_rhs) {
  return (work.entries + static_cast<double>(num_rhs) * work.rows) /
         host_assembly_rate();
}

/// One worker's numeric scratch, sized once per solve from the symbolic
/// maxima, so no task allocates: max update rows x r, a forward run's
/// product or the backward gather.
struct SolveWorker {
  std::vector<double> block;
};

/// Rows [row0, row0 + rows) of a panel, all its columns.
MatrixView<const double> panel_rows(const MatrixView<double>& panel,
                                    index_t row0, index_t rows) {
  return MatrixView<const double>(panel.data() + row0, rows, panel.cols(),
                                  panel.ld());
}

/// Forward task of supernode s: pull every incoming run, sources ascending,
/// as tmp = L[run rows, :] * X[source pivot rows] then X[run rows] -= tmp;
/// then solve the pivot block, L11 X[s] = X[s].
void forward_task(const SymbolicFactor& sym, const SolveSchedule& sched,
                  std::span<const MatrixView<double>> panels, index_t s,
                  MatrixView<double> x, SolveWorker& worker) {
  const index_t r = x.cols();
  for (index_t i = sched.in_ptr[static_cast<std::size_t>(s)];
       i < sched.in_ptr[static_cast<std::size_t>(s) + 1]; ++i) {
    const SolveRun& run = sched.runs[static_cast<std::size_t>(
        sched.in_runs[static_cast<std::size_t>(i)])];
    const SupernodeInfo& src =
        sym.supernodes()[static_cast<std::size_t>(run.source)];
    const index_t k = src.width();
    const index_t len = run.t_end - run.t_begin;
    const MatrixView<double> tmp(worker.block.data(), len, r, len);
    gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0,
                 panel_rows(panels[static_cast<std::size_t>(run.source)],
                            k + run.t_begin, len),
                 x.block(src.first_col, 0, k, r), 0.0, tmp);
    const index_t* rows = src.update_rows.data() + run.t_begin;
    for (index_t c = 0; c < r; ++c) {
      for (index_t t = 0; t < len; ++t) x(rows[t], c) -= tmp(t, c);
    }
  }
  const SupernodeInfo& sn = sym.supernodes()[static_cast<std::size_t>(s)];
  const index_t k = sn.width();
  trsm<double>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 1.0,
               panel_rows(panels[static_cast<std::size_t>(s)], 0, k),
               x.block(sn.first_col, 0, k, r));
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
    const MatrixView<double> g(worker.block.data(), m, r, m);
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
void run_sweep(const SolveSchedule& sched, const SweepDag& sweep,
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
  std::vector<SolveWorker> workers(static_cast<std::size_t>(threads));
  for (auto& w : workers) {
    w.block.resize(static_cast<std::size_t>(sched.max_update_rows) *
                   static_cast<std::size_t>(x.cols()));
  }
  {
    obs::ScopedSpan span("solve", "forward_sweep");
    span.set_arg(0, "levels", sched.num_levels);
    span.set_arg(1, "groups", sched.num_groups());
    run_sweep(sched, sched.forward, true, pool, threads, [&](index_t g, int w) {
      for (index_t s = sched.group_ptr[static_cast<std::size_t>(g)];
           s < sched.group_ptr[static_cast<std::size_t>(g) + 1]; ++s) {
        forward_task(sym, sched, panels, s, x,
                     workers[static_cast<std::size_t>(w)]);
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

  Matrix<double> x(n, num_rhs);
  {
    std::vector<double> permuted(static_cast<std::size_t>(n));
    for (index_t col = 0; col < num_rhs; ++col) {
      const std::span<const double> in(b.data() + col * n,
                                       static_cast<std::size_t>(n));
      analysis.perm.apply(in, permuted);
      std::copy(permuted.begin(), permuted.end(), x.data() + col * n);
    }
  }

  run_sweeps(sym, *sched, factor.panels, x.view(), pool, threads);

  {
    std::vector<double> column(static_cast<std::size_t>(n));
    for (index_t col = 0; col < num_rhs; ++col) {
      const std::span<const double> in(x.data() + col * n,
                                       static_cast<std::size_t>(n));
      analysis.perm.apply_inverse(in, column);
      std::copy(column.begin(), column.end(), x.data() + col * n);
    }
  }

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
  for (const auto& work : {forward_work(sym, schedule),
                           backward_work(sym, schedule)}) {
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
