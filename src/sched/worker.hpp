// Worker descriptions shared by the real-thread execution engine
// (sched/thread_pool.hpp + multifrontal/parallel.hpp) and the simulated
// cluster's nodes (cluster/cluster.hpp): the paper's Table VII
// configurations are lists of these (4 CPU threads; 2 threads + 2 GPUs).
#pragma once

#include <vector>

namespace mfgpu {

struct WorkerSpec {
  bool has_gpu = false;
};

/// `count` CPU-only workers (the plain multithreaded configurations).
inline std::vector<WorkerSpec> cpu_workers(int count) {
  return std::vector<WorkerSpec>(static_cast<std::size_t>(count > 0 ? count : 0));
}

}  // namespace mfgpu
