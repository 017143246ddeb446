// What-if replay accuracy gate: the exact replay engine in obs/whatif.hpp
// predicts makespans from a recorded schedule WITHOUT re-running numerics.
// This bench validates every rate knob (GPU / PCIe / host speed x0.5 and
// x2, plus combinations) against a live rerun under correspondingly scaled
// cost models, on both the per-front and the batched serial driver.
//
// Gates: every grid point within 2% relative makespan error, >= 10 such
// points, and the null counterfactual bitwise-equal to the recorded
// makespan on all three base records (serial, batched, 4-wide parallel).
//
// Structural counterfactuals (worker count, forced policy, batching off)
// have no predictor: they are answered by rerunning the factorization with
// the changed configuration.
#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "multifrontal/parallel.hpp"
#include "obs/schedule_record.hpp"
#include "obs/whatif.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/baseline_hybrid.hpp"
#include "policy/executors.hpp"

using namespace mfgpu;

namespace {

// Scale a resource's speed by f: every duration it produces divides by f.
// KernelRateModel::time = latency + (ops + ops_half) / (peak * shape), so
// peak * f and latency / f scale the whole duration exactly.
KernelRateModel scale_kernel(KernelRateModel k, double f) {
  k.peak_flops *= f;
  k.latency /= f;
  return k;
}

ProcessorModel scale_processor(ProcessorModel m, double f) {
  m.potrf = scale_kernel(m.potrf, f);
  m.trsm = scale_kernel(m.trsm, f);
  m.syrk = scale_kernel(m.syrk, f);
  m.gemm = scale_kernel(m.gemm, f);
  m.peak_flops *= f;
  return m;
}

// transfer_f scales copies and enqueue overheads (CostClass::Transfer);
// alloc_f the pool-growth latencies (CostClass::Alloc). WhatIfKnobs ties
// alloc to the transfer scale, and so does this live model.
TransferModel scale_transfer(TransferModel t, double transfer_f,
                             double alloc_f) {
  t.sync_bandwidth *= transfer_f;
  t.sync_latency /= transfer_f;
  t.async_bandwidth *= transfer_f;
  t.async_latency /= transfer_f;
  t.enqueue_overhead /= transfer_f;
  t.kernel_enqueue /= transfer_f;
  t.pinned_alloc_latency /= alloc_f;
  t.pinned_alloc_per_byte /= alloc_f;
  t.device_alloc_latency /= alloc_f;
  return t;
}

struct SerialConfig {
  double gpu_f = 1.0;
  double transfer_f = 1.0;
  double host_f = 1.0;
  bool batching = false;
};

// One live serial run with a recorder attached; the recorded makespan IS
// the live virtual makespan (the recorder is a pure observer).
obs::ScheduleRecord run_serial(const Analysis& analysis,
                               const SerialConfig& cfg) {
  Device::Options device_options;
  device_options.gpu = scale_processor(tesla_t10_model(), cfg.gpu_f);
  device_options.transfer =
      scale_transfer(pcie_x8_model(), cfg.transfer_f, cfg.transfer_f);
  Device device(device_options);

  FactorContext ctx;
  ctx.host_model = scale_processor(xeon5160_model(), cfg.host_f);
  ctx.device = &device;

  DispatchExecutor executor = make_baseline_hybrid(paper_thresholds());

  obs::ScheduleRecorder recorder;
  FactorizeOptions options;
  options.store_factor = false;
  options.batching = cfg.batching;
  options.recorder = &recorder;
  (void)factorize(analysis, executor, ctx, options);
  return recorder.take();
}

obs::ScheduleRecord run_parallel(const Analysis& analysis, int gpu_workers) {
  obs::ScheduleRecorder recorder;
  ParallelFactorizeOptions options;
  options.workers.assign(static_cast<std::size_t>(gpu_workers),
                         WorkerSpec{.has_gpu = true});
  options.numeric.store_factor = false;
  options.numeric.recorder = &recorder;
  (void)factorize_parallel(analysis, options);
  return recorder.take();
}

struct Point {
  std::string name;
  double predicted = 0.0;
  double live = 0.0;

  double rel_err() const {
    return live > 0.0 ? std::abs(predicted - live) / live : 0.0;
  }
};

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const auto dim = [&](index_t full) {
    return std::max<index_t>(5, static_cast<index_t>(full * scale));
  };
  const GridProblem p = make_laplacian_3d(dim(16), dim(16), dim(14));
  const Analysis analysis =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));

  // Base recordings: serial hybrid, serial batched, 4-wide parallel.
  const obs::ScheduleRecord base = run_serial(analysis, {});
  SerialConfig batched_cfg;
  batched_cfg.batching = true;
  const obs::ScheduleRecord base_batched = run_serial(analysis, batched_cfg);
  const obs::ScheduleRecord base_par = run_parallel(analysis, 4);

  // Null counterfactuals: bitwise reproduction on every driver's record.
  bool null_exact = true;
  for (const obs::ScheduleRecord* rec : {&base, &base_batched, &base_par}) {
    const obs::WhatIfResult r = obs::whatif_replay(*rec, obs::WhatIfKnobs{});
    null_exact = null_exact && r.makespan == rec->makespan;
  }

  std::vector<Point> points;
  auto rate_point = [&](const std::string& name,
                        const obs::ScheduleRecord& record, double gpu_f,
                        double transfer_f, double host_f,
                        bool batching) {
    obs::WhatIfKnobs knobs;
    knobs.gpu_scale = gpu_f;
    knobs.transfer_scale = transfer_f;
    knobs.host_scale = host_f;
    const obs::WhatIfResult r = obs::whatif_replay(record, knobs);
    SerialConfig cfg;
    cfg.gpu_f = gpu_f;
    cfg.transfer_f = transfer_f;
    cfg.host_f = host_f;
    cfg.batching = batching;
    points.push_back({name, r.makespan, run_serial(analysis, cfg).makespan});
  };
  rate_point("gpu_x0.5", base, 0.5, 1.0, 1.0, false);
  rate_point("gpu_x2", base, 2.0, 1.0, 1.0, false);
  rate_point("transfer_x0.5", base, 1.0, 0.5, 1.0, false);
  rate_point("transfer_x2", base, 1.0, 2.0, 1.0, false);
  rate_point("host_x0.5", base, 1.0, 1.0, 0.5, false);
  rate_point("host_x2", base, 1.0, 1.0, 2.0, false);
  rate_point("gpu_x2_transfer_x2", base, 2.0, 2.0, 1.0, false);
  rate_point("gpu_x0.5_host_x2", base, 0.5, 1.0, 2.0, false);
  rate_point("batched_gpu_x2", base_batched, 2.0, 1.0, 1.0,
             batched_cfg.batching);
  rate_point("batched_transfer_x2", base_batched, 1.0, 2.0, 1.0,
             batched_cfg.batching);

  double max_gated_err = 0.0;
  const int gated_points = static_cast<int>(points.size());
  Table table("What-if prediction vs live rerun (virtual makespan)",
              {"point", "predicted s", "live s", "rel err"});
  for (const Point& pt : points) {
    max_gated_err = std::max(max_gated_err, pt.rel_err());
    table.add_row({pt.name, pt.predicted, pt.live, pt.rel_err()});
  }
  bench::emit(table, "whatif_accuracy.csv");

  obs::BenchRecord record = bench::make_bench_record("whatif_accuracy");
  record.set_config("grid", std::to_string(dim(16)) + "x" +
                                std::to_string(dim(16)) + "x" +
                                std::to_string(dim(14)));
  record.add_metric("gated_points", static_cast<double>(gated_points),
                    obs::MetricDirection::Exact);
  record.add_metric("null_replay_bitwise", null_exact ? 1.0 : 0.0,
                    obs::MetricDirection::Exact);
  record.add_metric("max_gated_rel_err", max_gated_err,
                    obs::MetricDirection::LowerIsBetter);
  for (const Point& pt : points) {
    record.add_metric("err." + pt.name, pt.rel_err(),
                      obs::MetricDirection::Info);
  }
  bench::emit_bench_record(record);

  std::printf(
      "whatif accuracy: %d gated points, max gated rel err %.4f%%, null %s\n",
      gated_points, max_gated_err * 100.0, null_exact ? "bitwise" : "DIVERGED");
  if (!null_exact) {
    std::fprintf(stderr, "FAIL: null counterfactual is not bitwise exact\n");
    return 1;
  }
  if (gated_points < 10) {
    std::fprintf(stderr, "FAIL: grid has %d < 10 gated points\n", gated_points);
    return 1;
  }
  if (max_gated_err > 0.02) {
    for (const Point& pt : points) {
      if (pt.rel_err() > 0.02) {
        std::fprintf(stderr, "FAIL: %s predicted %.6f vs live %.6f (%.2f%%)\n",
                     pt.name.c_str(), pt.predicted, pt.live,
                     pt.rel_err() * 100.0);
      }
    }
    return 1;
  }
  return 0;
}
