// Batched small-front dispatch vs the per-front GPU path (ISSUE 7
// headline). On a small-front-dominated 3-D Laplacian nearly every
// factor-update call sits below the paper's P1 threshold, so the per-front
// GPU implementation drowns in launch latencies and per-front transfers.
// Aggregating same-level small fronts into one batched launch (one
// enqueue + one latency + one coalesced transfer each way per batch)
// amortizes that fixed cost; the bench gates a >= 1.5x simulated speedup.
//
// The second contract gated here: batching is a scheduling/pricing
// decision only. The batched factor must be bitwise identical to the
// serial per-front host (P1) factor.
#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "multifrontal/batched.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/executors.hpp"

using namespace mfgpu;

namespace {

/// Every front in this workload is small, so the baseline "basic GPU"
/// path must be forced onto the device to be a per-front GPU dispatch at
/// all (the hybrid would correctly keep them on the host).
Policy always_p3(const FuCall&) { return Policy::P3; }

struct RunResult {
  double sim_seconds = 0.0;
  int batched_calls = 0;
  int max_width = 0;
  std::size_t calls = 0;
  Factorization factor;
};

RunResult run(const Analysis& analysis, bool batching) {
  Device device;
  DispatchExecutor dispatch("gpu", always_p3);
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = batching;
  FactorizeResult result = factorize(analysis, dispatch, ctx, options);

  RunResult out;
  out.sim_seconds = result.trace.total_time;
  out.calls = result.trace.calls.size();
  out.factor = std::move(result.factor);
  for (const FuCallRecord& r : result.trace.calls) {
    if (r.batch <= 1) continue;
    ++out.batched_calls;
    out.max_width = std::max(out.max_width, r.batch);
  }
  return out;
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const auto dim = [&](index_t full) {
    return std::max<index_t>(4, static_cast<index_t>(full * scale));
  };
  const GridProblem p = make_laplacian_3d(dim(14), dim(14), dim(12));
  const Analysis analysis =
      analyze(p.matrix, minimum_degree(build_graph(p.matrix)));

  const BatchPlan plan = group_batches(analysis.symbolic);

  // Per-front GPU dispatch vs the same chooser with batching on.
  const RunResult per_front = run(analysis, false);
  const RunResult batched = run(analysis, true);
  const double speedup = per_front.sim_seconds / batched.sim_seconds;

  // The numeric contract: batched == serial per-front host path, bit for
  // bit. (The timing runs above use device policies for the unbatched
  // fronts, so the identity pair pins everything to P1.)
  PolicyExecutor host_executor(Policy::P1);
  FactorContext host_ctx;
  const Factorization host_factor =
      factorize(analysis, host_executor, host_ctx).factor;
  DispatchExecutor p1_dispatch("p1", [](const FuCall&) { return Policy::P1; });
  Device identity_device;
  FactorContext identity_ctx;
  identity_ctx.device = &identity_device;
  FactorizeOptions identity_options;
  identity_options.batching = true;
  const Factorization batched_factor =
      factorize(analysis, p1_dispatch, identity_ctx, identity_options).factor;
  const bool bitwise =
      !first_factor_difference(host_factor, batched_factor).has_value();

  const double batched_share =
      batched.calls == 0
          ? 0.0
          : static_cast<double>(batched.batched_calls) /
                static_cast<double>(batched.calls);

  Table table("Batched small-front dispatch vs per-front GPU (simulated)",
              {"path", "sim seconds", "batched fronts", "dispatches",
               "max width"});
  table.add_row({std::string("per-front"), per_front.sim_seconds, 0.0, 0.0,
                 0.0});
  table.add_row({std::string("batched"), batched.sim_seconds,
                 static_cast<double>(batched.batched_calls),
                 static_cast<double>(plan.batches.size()),
                 static_cast<double>(batched.max_width)});
  bench::emit(table, "batched_small_fronts.csv");

  obs::BenchRecord record = bench::make_bench_record("batched_small_fronts");
  record.set_config("grid", std::to_string(dim(14)) + "x" +
                                std::to_string(dim(14)) + "x" +
                                std::to_string(dim(12)));
  record.set_config("batch", "on");
  record.add_metric("per_front_gpu_seconds", per_front.sim_seconds,
                    obs::MetricDirection::LowerIsBetter);
  record.add_metric("batched_seconds", batched.sim_seconds,
                    obs::MetricDirection::LowerIsBetter);
  record.add_metric("batched_speedup", speedup,
                    obs::MetricDirection::HigherIsBetter);
  record.add_metric("batch_dispatches",
                    static_cast<double>(plan.batches.size()),
                    obs::MetricDirection::Exact);
  record.add_metric("fronts_batched",
                    static_cast<double>(batched.batched_calls),
                    obs::MetricDirection::Exact);
  record.add_metric("batched_front_share", batched_share,
                    obs::MetricDirection::HigherIsBetter);
  record.add_metric("max_batch_width", static_cast<double>(batched.max_width),
                    obs::MetricDirection::Exact);
  record.add_metric("bitwise_identical_to_host_per_front", bitwise ? 1.0 : 0.0,
                    obs::MetricDirection::Exact);
  bench::emit_bench_record(record);

  std::printf(
      "batched small fronts: per-front %.4fs, batched %.4fs -> %.2fx "
      "(%d fronts in %zu dispatches, widest %d), factor %s\n",
      per_front.sim_seconds, batched.sim_seconds, speedup,
      batched.batched_calls, plan.batches.size(), batched.max_width,
      bitwise ? "bitwise-identical" : "DIVERGED");
  if (!bitwise) {
    std::fprintf(stderr, "FAIL: batched factor diverged from host path\n");
    return 1;
  }
  if (batched.batched_calls == 0) {
    std::fprintf(stderr, "FAIL: plan never batched a front\n");
    return 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the 1.5x gate\n", speedup);
    return 1;
  }
  return 0;
}
