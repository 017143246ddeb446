// Real-thread scaling of the numeric phase: the work-stealing pool
// (sched/thread_pool.hpp) executing the assembly tree, against the paper's
// Table VII multithreaded rows.
//
// Two speedup columns per thread count:
//   wall    — real seconds (kernels do real work; needs >= that many
//             hardware cores to materialize, time-slicing flattens it)
//   virtual — the executed schedule priced on the calibrated Xeon 5160
//             model (the paper's metric; hardware-independent)
// The "engine" column is the fan-both engine's deterministic virtual
// speedup on 4 shared-memory nodes (bench::shared_memory_makespan) — the
// schedule Table VII's 4-Thread column reports.
#include "common.hpp"

#include <chrono>

#include "multifrontal/parallel.hpp"

using namespace mfgpu;

int main() {
  const auto testset = bench::load_testset();
  const std::vector<int> thread_counts = {1, 2, 4};

  Table table("Real-thread numeric factorization scaling (CPU workers, P1)",
              {"matrix", "serial wall s", "wall speedup 2T", "wall speedup 4T",
               "virtual speedup 2T", "virtual speedup 4T",
               "engine speedup 4T"});
  // Only the fan-both engine's speedup is run-to-run deterministic: the
  // pool's virtual makespan depends on stealing order, and wall clocks on
  // the machine — both are recorded as Info, not gated.
  obs::BenchRecord record = bench::make_bench_record("parallel_scaling");

  for (const auto& bm : testset) {
    std::vector<double> wall(thread_counts.size());
    std::vector<double> makespan(thread_counts.size());
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      ParallelFactorizeOptions options;
      options.num_threads = thread_counts[i];
      options.numeric.store_factor = false;  // timing study
      const auto t0 = std::chrono::steady_clock::now();
      const FactorizeResult result = factorize_parallel(bm.analysis, options);
      wall[i] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      makespan[i] = result.trace.total_time;
    }

    const double engine_speedup =
        bench::shared_memory_makespan(bm.analysis, 1) /
        bench::shared_memory_makespan(bm.analysis, 4);

    table.add_row({bm.problem.name, wall[0], wall[0] / wall[1],
                   wall[0] / wall[2], makespan[0] / makespan[1],
                   makespan[0] / makespan[2], engine_speedup});
    const std::string& mat = bm.problem.name;
    const auto higher = mfgpu::obs::MetricDirection::HigherIsBetter;
    const auto info = mfgpu::obs::MetricDirection::Info;
    record.add_metric(mat + ".wall_serial_seconds", wall[0], info);
    record.add_metric(mat + ".wall_speedup_4t", wall[0] / wall[2], info);
    record.add_metric(mat + ".virtual_speedup_2t", makespan[0] / makespan[1],
                      info);
    record.add_metric(mat + ".virtual_speedup_4t", makespan[0] / makespan[2],
                      info);
    record.add_metric(mat + ".engine_speedup_4t", engine_speedup, higher);
  }
  bench::emit(table, "parallel_scaling.csv");
  bench::emit_bench_record(record);
  std::printf(
      "paper Table VII 4-thread range: 2.7-4.3x (virtual). Wall speedup "
      "tracks it only when >= 4 hardware cores are available.\n");
  return 0;
}
