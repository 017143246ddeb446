#include "common.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/obs.hpp"

namespace mfgpu::bench {

// Benchmarks honor the same MFGPU_TRACE / MFGPU_METRICS env toggles as the
// solver binaries; exports are written at process exit. Inert (one relaxed
// atomic load per instrumentation site) when neither variable is set.
const obs::ObsScope bench_obs_scope = obs::ObsScope::from_env();

double bench_scale() {
  if (const char* env = std::getenv("MFGPU_BENCH_SCALE")) {
    const double value = std::atof(env);
    if (value > 0.0 && value <= 1.0) return value;
    std::cerr << "ignoring invalid MFGPU_BENCH_SCALE=" << env << "\n";
  }
  return 1.0;
}

std::vector<BenchMatrix> load_testset() {
  std::vector<BenchMatrix> set;
  for (auto& problem : make_paper_testset(bench_scale())) {
    Analysis analysis =
        analyze(problem.matrix, nested_dissection(problem.coords));
    set.push_back(BenchMatrix{std::move(problem), std::move(analysis)});
  }
  return set;
}

BenchMatrix load_matrix(std::size_t index) {
  auto problems = make_paper_testset(bench_scale());
  MFGPU_CHECK(index < problems.size(), "load_matrix: index out of range");
  GridProblem problem = std::move(problems[index]);
  Analysis analysis =
      analyze(problem.matrix, nested_dissection(problem.coords));
  return BenchMatrix{std::move(problem), std::move(analysis)};
}

FactorizationTrace run_trace(const Analysis& analysis, FuExecutor& executor,
                             bool use_device, Device::Options device_options) {
  FactorContext ctx;
  ctx.numeric = false;
  device_options.numeric = false;
  std::unique_ptr<Device> device;
  if (use_device) {
    device = std::make_unique<Device>(device_options);
    ctx.device = device.get();
  }
  FactorizeOptions options;
  options.store_factor = false;
  return factorize(analysis, executor, ctx, options).trace;
}

double shared_memory_makespan(const Analysis& analysis, int nodes,
                              bool nodes_have_gpu,
                              const ExecutorOptions& executor,
                              const WorkerExecutorFactory& make_executor) {
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = nodes;
  options.cluster.link = shared_memory_link();
  options.cluster.nodes_have_gpu = nodes_have_gpu;
  options.numeric.store_factor = false;
  options.executor = executor;
  return factorize_cluster(analysis, options, make_executor).trace.total_time;
}

ExecutorOptions basic_gpu_options() {
  ExecutorOptions options;
  options.overlapped_copies = false;
  return options;
}

namespace {

std::filesystem::path out_dir() {
  const std::filesystem::path dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

void emit(const Table& table, const std::string& csv_name) {
  table.print(std::cout);
  std::cout << "\n";
  std::ofstream csv(out_dir() / csv_name);
  table.write_csv(csv);
}

void emit_text(const std::string& text, const std::string& file_name) {
  std::ofstream os(out_dir() / file_name);
  os << text;
}

obs::BenchRecord make_bench_record(const std::string& name) {
  obs::BenchRecord record;
  record.name = name;
  record.git_sha = obs::current_git_sha();
  record.set_config("scale", std::to_string(bench_scale()));
  return record;
}

void emit_bench_record(const obs::BenchRecord& record) {
  MFGPU_CHECK(!record.name.empty(), "emit_bench_record: unnamed record");
  const std::string file_name = "BENCH_" + record.name + ".json";
  std::ofstream os(out_dir() / file_name);
  obs::write_bench_json(os, record);
  std::cout << "wrote bench_out/" << file_name << "\n";
}

}  // namespace mfgpu::bench
