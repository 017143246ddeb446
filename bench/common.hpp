// Shared setup for the paper-reproduction benchmark binaries: the five
// test matrices (Table II stand-ins), their symbolic analyses, dry-run
// trace collection under any executor, and uniform table/CSV output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autotune/hybrid.hpp"
#include "cluster/cluster.hpp"
#include "multifrontal/factorization.hpp"
#include "obs/bench_json.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/table.hpp"

namespace mfgpu::bench {

/// Problem scale from MFGPU_BENCH_SCALE (default 1.0; smaller = faster).
double bench_scale();

struct BenchMatrix {
  GridProblem problem;
  Analysis analysis;
};

/// The five Table II stand-ins, analyzed with geometric nested dissection.
std::vector<BenchMatrix> load_testset();

/// One matrix only (for quick single-matrix figures); index into Table II.
BenchMatrix load_matrix(std::size_t index);

/// Dry-run factorization trace under `executor`. `use_device` attaches a
/// fresh simulated T10.
FactorizationTrace run_trace(const Analysis& analysis, FuExecutor& executor,
                             bool use_device,
                             Device::Options device_options = {});

/// Virtual makespan of the fan-both engine (cluster/cluster.hpp) on `nodes`
/// shared-memory nodes — threads on one host joined by a zero-cost link.
/// This is the deterministic multi-worker schedule behind Table VII's
/// multi-worker columns; it runs real numerics. Without a factory, CPU
/// nodes run P1 and GPU nodes the baseline hybrid.
double shared_memory_makespan(const Analysis& analysis, int nodes,
                              bool nodes_have_gpu = false,
                              const ExecutorOptions& executor = {},
                              const WorkerExecutorFactory& make_executor = {});

/// The Section IV "basic GPU implementation": P3 with synchronous pageable
/// copies.
ExecutorOptions basic_gpu_options();

/// Print the table to stdout and mirror it to bench_out/<name>.csv.
void emit(const Table& table, const std::string& csv_name);

/// Write arbitrary text (heat maps etc.) next to the CSVs.
void emit_text(const std::string& text, const std::string& file_name);

/// Standard bench-result skeleton: git sha plus the scale configuration.
/// Add metrics, then pass to emit_bench_record. Only simulated/virtual
/// quantities should be gated (LowerIsBetter/HigherIsBetter/Exact) — host
/// wall clocks go in as Info.
obs::BenchRecord make_bench_record(const std::string& name);

/// Write the record to bench_out/BENCH_<record.name>.json (the file the
/// tools/bench_compare regression gate consumes).
void emit_bench_record(const obs::BenchRecord& record);

}  // namespace mfgpu::bench
