#include "sched/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace mfgpu {
namespace {

/// Random postordered forest: each task's parent is a higher index (or a
/// root). Mirrors the shape of a supernodal assembly tree.
std::vector<index_t> random_forest(index_t n, Rng& rng) {
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  for (index_t t = 0; t + 1 < n; ++t) {
    if (rng.uniform(0.0, 1.0) < 0.9) {
      parent[static_cast<std::size_t>(t)] = std::min<index_t>(
          t + 1 + rng.uniform_int(0, std::min<index_t>(8, n - 1 - t)), n - 1);
    }
  }
  return parent;
}

/// A forest given as a parent array (parent[t] == -1 for roots), lowered to
/// the pool's CSR successor form: each task's one successor is its parent.
struct ForestDag {
  std::vector<index_t> succ_ptr;
  std::vector<index_t> succ;
  std::vector<index_t> deps;
  GraphDag dag;

  explicit ForestDag(std::span<const index_t> parent,
                     std::span<const int> preferred_worker = {},
                     std::span<const double> priority = {}) {
    const std::size_t n = parent.size();
    succ_ptr.assign(n + 1, 0);
    deps.assign(n, 0);
    for (std::size_t t = 0; t < n; ++t) {
      if (parent[t] != -1) {
        succ.push_back(parent[t]);
        ++deps[static_cast<std::size_t>(parent[t])];
      }
      succ_ptr[t + 1] = static_cast<index_t>(succ.size());
    }
    dag.succ_ptr = succ_ptr;
    dag.succ = succ;
    dag.num_deps = deps;
    dag.preferred_worker = preferred_worker;
    dag.priority = priority;
  }
  ForestDag(const ForestDag&) = delete;
  ForestDag& operator=(const ForestDag&) = delete;
};

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnceChildrenFirst) {
  Rng rng(7);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const index_t n = 500;
    const std::vector<index_t> parent = random_forest(n, rng);
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    std::vector<std::atomic<index_t>> open_children(static_cast<std::size_t>(n));
    for (index_t t = 0; t < n; ++t) {
      const index_t p = parent[static_cast<std::size_t>(t)];
      if (p != -1) open_children[static_cast<std::size_t>(p)].fetch_add(1);
    }
    const ForestDag forest(parent);
    const PoolRunStats stats = pool.run_dag(forest.dag, [&](index_t t, int w) {
      ASSERT_GE(w, 0);
      ASSERT_LT(w, threads);
      // Ready only when every child already ran.
      EXPECT_EQ(open_children[static_cast<std::size_t>(t)].load(), 0);
      runs[static_cast<std::size_t>(t)].fetch_add(1);
      const index_t p = parent[static_cast<std::size_t>(t)];
      if (p != -1) open_children[static_cast<std::size_t>(p)].fetch_sub(1);
    });
    for (index_t t = 0; t < n; ++t) {
      EXPECT_EQ(runs[static_cast<std::size_t>(t)].load(), 1) << "task " << t;
    }
    std::int64_t executed = 0;
    for (std::int64_t e : stats.executed) executed += e;
    EXPECT_EQ(executed, n);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsOnCallerInPriorityOrder) {
  ThreadPool pool(1);
  // A forest of 6 independent roots with explicit priorities: worker 0 must
  // pop them highest-priority-first, giving a deterministic sequence.
  const std::vector<index_t> parent(6, -1);
  const std::vector<double> priority = {3.0, 1.0, 5.0, 0.0, 4.0, 2.0};
  const auto caller = std::this_thread::get_id();
  std::vector<index_t> order;
  const ForestDag forest(parent, {}, priority);
  pool.run_dag(forest.dag, [&](index_t t, int w) {
    EXPECT_EQ(w, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(t);
  });
  EXPECT_EQ(order, (std::vector<index_t>{2, 4, 0, 5, 1, 3}));
}

TEST(ThreadPoolTest, StealsWhenSeedingIsImbalanced) {
  // Seed every leaf into worker 0's deque: the other workers can only make
  // progress by stealing. All tasks sleep a little so there is work to take.
  const int threads = 4;
  ThreadPool pool(threads);
  const index_t n = 64;
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  const std::vector<int> preferred(static_cast<std::size_t>(n), 0);
  std::vector<std::atomic<int>> worker_of(static_cast<std::size_t>(n));
  const ForestDag forest(parent, preferred);
  const PoolRunStats stats = pool.run_dag(forest.dag, [&](index_t t, int w) {
    worker_of[static_cast<std::size_t>(t)].store(w);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  EXPECT_GT(stats.total_steals(), 0);
  bool any_stolen = false;
  for (index_t t = 0; t < n; ++t) {
    if (worker_of[static_cast<std::size_t>(t)].load() != 0) any_stolen = true;
  }
  EXPECT_TRUE(any_stolen);
  EXPECT_EQ(static_cast<index_t>(stats.busy_seconds.size()), threads);
}

TEST(ThreadPoolTest, ExceptionAbortsRunAndPropagatesToCaller) {
  ThreadPool pool(4);
  const index_t n = 200;
  // A chain: task t's parent is t+1, so the poisoned task cuts execution.
  std::vector<index_t> parent(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) parent[static_cast<std::size_t>(t)] = t + 1;
  parent[static_cast<std::size_t>(n - 1)] = -1;
  std::atomic<index_t> ran{0};
  const ForestDag forest(parent);
  EXPECT_THROW(pool.run_dag(forest.dag,
                            [&](index_t t, int) {
                              if (t == 50) throw std::runtime_error("poison");
                              ran.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_LT(ran.load(), n);

  // The pool survives a failed run and is reusable afterwards.
  std::atomic<index_t> second{0};
  pool.run_dag(forest.dag, [&](index_t, int) { second.fetch_add(1); });
  EXPECT_EQ(second.load(), n);
}

TEST(ThreadPoolTest, CleanShutdownWithUnusedAndReusedPools) {
  {
    ThreadPool idle(8);  // constructed and destroyed without any run
  }
  ThreadPool pool(3);
  const std::vector<index_t> parent = {1, 2, -1};
  const ForestDag forest(parent);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.run_dag(forest.dag, [&](index_t, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
  }
}

}  // namespace
}  // namespace mfgpu
