// Parallel scheduling scenario: the paper's closing experiment — tree-level
// task parallelism across CPU threads, each optionally driving its own GPU
// (Table VII's 4-thread and "2 threads + 2 GPUs" columns). Runs the
// deterministic fan-both engine (cluster/cluster.hpp) on shared-memory
// nodes: threads on one host are nodes joined by a zero-cost link.
#include <cstdio>
#include <memory>

#include "autotune/hybrid.hpp"
#include "autotune/trainer.hpp"
#include "cluster/cluster.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  Rng rng(11);
  const GridProblem model = make_elasticity_3d(20, 20, 16, 3, rng);
  const Analysis analysis =
      analyze(model.matrix, nested_dissection(model.coords));
  std::printf("task DAG: %lld supernode tasks\n",
              static_cast<long long>(analysis.symbolic.num_supernodes()));

  // Train a copy-optimized model for the GPU workers.
  ExecutorOptions copy_opt;
  copy_opt.copy_optimized_p4 = true;
  PolicyTimer timer(copy_opt);
  const PolicyDataset dataset =
      build_dataset(dims_from_symbolic(analysis.symbolic), timer);
  const TrainedPolicyModel model_hybrid = train_expected_time(dataset);

  // `gpu_nodes` of the nodes dispatch the model hybrid on their own GPU;
  // the rest run P1 on the host.
  auto makespan = [&](int nodes, int gpu_nodes) {
    ClusterFactorizeOptions options;
    options.cluster.num_nodes = nodes;
    options.cluster.link = shared_memory_link();
    options.cluster.nodes_have_gpu = gpu_nodes > 0;
    options.executor = copy_opt;
    options.numeric.store_factor = false;
    const WorkerExecutorFactory factory =
        [&](const WorkerSpec&, int node) -> std::unique_ptr<FuExecutor> {
      if (node >= gpu_nodes) {
        return std::make_unique<PolicyExecutor>(Policy::P1, copy_opt);
      }
      return std::make_unique<DispatchExecutor>(
          make_model_hybrid(model_hybrid, copy_opt));
    };
    return factorize_cluster(analysis, options, factory).trace.total_time;
  };

  const double serial = makespan(1, 0);
  std::printf("1 CPU thread: %.3f s (reference)\n", serial);

  struct Config {
    const char* name;
    int nodes;
    int gpu_nodes;
  };
  const Config configs[] = {
      {"2 CPU threads", 2, 0},
      {"4 CPU threads", 4, 0},
      {"1 thread + 1 GPU", 1, 1},
      {"2 threads + 2 GPUs", 2, 2},
      {"4 threads, 2 with GPUs", 4, 2},
  };
  for (const Config& config : configs) {
    const double t = makespan(config.nodes, config.gpu_nodes);
    std::printf("%-24s makespan %.3f s, speedup %5.2fx\n", config.name, t,
                serial / t);
  }
  std::printf(
      "paper Table VII: 2 threads + 2 GPUs reach 10-25x over serial on "
      "matrices ~10x larger than this example\n");
  return 0;
}
