// Chaos suite: end-to-end factorizations and solves under randomized
// device-fault injection. The contract under chaos is absolute — every run
// completes without aborting, and every solution is either bitwise equal to
// the fault-free serial result (fallback path) or verified by double
// precision iterative refinement.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/factor_bitwise.hpp"
#include "multifrontal/parallel.hpp"
#include "multifrontal/refine.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ordering/minimum_degree.hpp"
#include "policy/baseline_hybrid.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

Analysis analyze_md(const SparseSpd& a) {
  return analyze(a, minimum_degree(build_graph(a)));
}

std::vector<double> rhs_for_ones(const SparseSpd& a) {
  std::vector<double> ones(static_cast<std::size_t>(a.n()), 1.0);
  std::vector<double> b(ones.size());
  a.multiply(ones, b);
  return b;
}

/// GPU-forcing chooser: the test grids' fronts are small enough that the
/// paper's op-count thresholds would route everything to P1 and no device
/// op would ever sample the injector.
Policy always_p3(const FuCall&) { return Policy::P3; }

FaultInjectorOptions chaos_rates(std::uint64_t seed, double rate,
                                 double death_rate) {
  FaultInjectorOptions faults;
  faults.seed = seed;
  faults.transient_kernel_rate = rate;
  faults.transfer_corruption_rate = rate;
  faults.spurious_oom_rate = rate;
  faults.device_death_rate = death_rate;
  return faults;
}

TEST(ChaosTest, SeedSweepAtOnePercentCompletesRefinementVerified) {
  // Eight seeds, every fault kind live at 1% (death included): no run may
  // abort, and each solve must refine to double accuracy regardless of
  // which fronts faulted, fell back, or outlived a dead device.
  Rng rng(3);
  const GridProblem p = make_elasticity_3d(4, 4, 4, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);
  const auto b = rhs_for_ones(p.matrix);

  std::int64_t total_faults = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Device::Options device_options;
    device_options.faults = chaos_rates(seed, 0.01, 0.01);
    Device device(device_options);
    DispatchExecutor dispatch("chaos", always_p3);
    FactorContext ctx;
    ctx.device = &device;

    FactorizeResult result;
    ASSERT_NO_THROW(result = factorize(analysis, dispatch, ctx))
        << "seed " << seed;
    total_faults += result.faults_survived;

    const RefineResult refined =
        solve_with_refinement(p.matrix, analysis, result.factor, b);
    ASSERT_FALSE(refined.residual_norms.empty()) << "seed " << seed;
    EXPECT_LT(refined.residual_norms.back(), 1e-8)
        << "seed " << seed << " faults " << result.faults_survived;
  }
  // 1% across 8 seeds and hundreds of device ops: silence means the
  // injector is not actually wired into the executed path.
  EXPECT_GT(total_faults, 0);
}

TEST(ChaosTest, ParallelIsBitwiseEqualAcrossWorkerCountsUnderFaults) {
  // With device death off, the front-scoped fault schedule is a
  // pure function of the front — so the same fronts fault, retry, and fall
  // back identically no matter how many workers race over the tree, and the
  // factors stay bitwise identical.
  Rng rng(7);
  const GridProblem p = make_elasticity_3d(5, 4, 4, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);

  const auto factor_with_workers = [&](int gpu_workers) {
    ParallelFactorizeOptions options;
    options.workers.assign(static_cast<std::size_t>(gpu_workers),
                           WorkerSpec{.has_gpu = true});
    options.deterministic_reduction = true;
    // 5% keeps this specific seed's schedule fault-bearing; death stays off
    // because a sticky death is per-device state and would legitimately
    // diverge between worker counts.
    options.device.faults = chaos_rates(/*seed=*/5, /*rate=*/0.05,
                                        /*death_rate=*/0.0);
    return factorize_parallel(
        analysis, options, [](const WorkerSpec&, int) {
          return std::make_unique<DispatchExecutor>("chaos", always_p3);
        });
  };

  const FactorizeResult one = factor_with_workers(1);
  const FactorizeResult four = factor_with_workers(4);
  EXPECT_GT(one.faults_survived, 0) << "schedule never faulted";
  EXPECT_EQ(one.faults_survived, four.faults_survived);
  EXPECT_TRUE(testing_helpers::factors_bitwise_equal(one.factor, four.factor));
}

TEST(ChaosTest, FaultInsideBatchRetriesOnlyTheAffectedFront) {
  // Transient kernel faults and transfer corruption land inside aggregated
  // dispatches: each faulted member must be restored and re-run through the
  // per-front path alone — the rest of its batch is untouched, no dispatch
  // is aborted wholesale, and the factor stays bitwise equal to the
  // fault-free per-front run (batched member math is the per-front host
  // math, and so is the retry's).
  Rng rng(17);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);

  // Fault-free per-front reference.
  PolicyExecutor reference_executor(Policy::P1);
  FactorContext reference_ctx;
  const FactorizeResult reference =
      factorize(analysis, reference_executor, reference_ctx);

  obs::MetricsRegistry::global().clear();
  obs::enable();
  Device::Options device_options;
  // Kernel + transfer faults only: death would abort dispatches and
  // spurious OOM aborts allocation — this test pins the per-member path.
  device_options.faults = chaos_rates(/*seed=*/17, /*rate=*/0.05,
                                      /*death_rate=*/0.0);
  device_options.faults.spurious_oom_rate = 0.0;
  Device device(device_options);
  DispatchExecutor dispatch("batch-chaos",
                            [](const FuCall&) { return Policy::P1; });
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = true;
  FactorizeResult result;
  ASSERT_NO_THROW(result = factorize(analysis, dispatch, ctx, options));
  obs::disable();

  auto& metrics = obs::MetricsRegistry::global();
  ASSERT_GE(metrics.counter("batch.dispatches"), 1.0);
  EXPECT_GE(metrics.counter("batch.faulted"), 1.0)
      << "no member faulted inside a batch: raise the rate or grid size";
  EXPECT_EQ(metrics.counter("batch.aborts"), 0.0);
  EXPECT_GE(result.faults_survived, 1);
  obs::MetricsRegistry::global().clear();

  // Members that stayed in the batch carry no fault; degraded members were
  // re-executed per-front (policy 1 here) with their faults on record.
  int faulted_calls = 0;
  for (const FuCallRecord& r : result.trace.calls) {
    if (r.batch > 1) {
      EXPECT_EQ(r.faults, 0) << "snode " << r.snode;
    }
    if (r.faults > 0) {
      ++faulted_calls;
      EXPECT_EQ(r.batch, 1) << "snode " << r.snode;
    }
  }
  EXPECT_GE(faulted_calls, 1);
  EXPECT_TRUE(
      testing_helpers::factors_bitwise_equal(reference.factor, result.factor));
}

TEST(ChaosTest, CorruptedBatchDownloadRetriesOnlyThatMember) {
  // One corrupted draw in the whole run, and it lands on a batched member's
  // download: seed 6 at this rate corrupts only the update-product download
  // of supernode 7's batch dispatch. The batched path reads its downloads in
  // place on the device slabs, so the poisoned entry must still be caught
  // there: that member alone records the corruption and re-runs per-front,
  // its batch mates stay clean, and the factor is bitwise the fault-free
  // one.
  Rng rng(17);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);

  PolicyExecutor reference_executor(Policy::P1);
  FactorContext reference_ctx;
  const FactorizeResult reference =
      factorize(analysis, reference_executor, reference_ctx);

  Device::Options device_options;
  device_options.faults.seed = 6;
  device_options.faults.transfer_corruption_rate = 0.01;
  Device device(device_options);
  DispatchExecutor dispatch("batch-download",
                            [](const FuCall&) { return Policy::P1; });
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = true;
  FactorizeResult result;
  ASSERT_NO_THROW(result = factorize(analysis, dispatch, ctx, options));

  const FaultInjectorStats& injected = device.fault_injector().stats();
  ASSERT_EQ(injected.transfer_corruption, 1);
  ASSERT_EQ(injected.total_faults(), 1);

  constexpr auto kCorrupted =
      static_cast<std::size_t>(FaultKind::TransferCorruption);
  int faulted_calls = 0;
  int batched_calls = 0;
  for (const FuCallRecord& r : result.trace.calls) {
    if (r.faults == 0) {
      batched_calls += r.batch > 1 ? 1 : 0;
      continue;
    }
    ++faulted_calls;
    EXPECT_EQ(r.snode, 7);
    EXPECT_EQ(r.faults, 1);
    EXPECT_EQ(r.fault_kinds[kCorrupted], 1) << "snode " << r.snode;
    EXPECT_EQ(r.batch, 1) << "snode " << r.snode;
  }
  EXPECT_EQ(faulted_calls, 1);
  EXPECT_GE(batched_calls, 1);
  EXPECT_TRUE(
      testing_helpers::factors_bitwise_equal(reference.factor, result.factor));
}

TEST(ChaosTest, BatchLeaderKeepsItsOwnFaultSchedule) {
  // A front's fault schedule is a pure function of (seed, front, op),
  // whether or not it leads its batch (FaultInjector::resume_scope). The
  // seed is chosen so that the first batch leader's op-0 draw corrupts
  // and its next fifteen draws are clean: op 0 is the leader's L1 upload,
  // so the leader must record a TransferCorruption and re-run per-front.
  // If the dispatch's slab allocations consumed the leader's first ops,
  // its upload would draw a clean op and no fault would reach it.
  Rng rng(17);
  const GridProblem p = make_elasticity_3d(6, 6, 5, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);
  const BatchPlan plan = group_batches(analysis.symbolic);
  ASSERT_TRUE(plan.any());
  const index_t leader = plan.batches.front().snodes.front();
  const auto scope = static_cast<std::uint64_t>(
      analysis.symbolic.supernodes()[static_cast<std::size_t>(leader)]
          .first_col);

  constexpr double kRate = 0.01;
  std::uint64_t seed = 0;
  const auto leader_schedule_fits = [&](std::uint64_t s) {
    if (FaultInjector::uniform(s, scope, 0) >= kRate) return false;
    for (std::uint64_t op = 1; op < 16; ++op) {
      if (FaultInjector::uniform(s, scope, op) < kRate) return false;
    }
    return true;
  };
  while (!leader_schedule_fits(seed)) ++seed;

  PolicyExecutor reference_executor(Policy::P1);
  FactorContext reference_ctx;
  const FactorizeResult reference =
      factorize(analysis, reference_executor, reference_ctx);

  Device::Options device_options;
  device_options.faults.seed = seed;
  device_options.faults.transfer_corruption_rate = kRate;
  Device device(device_options);
  DispatchExecutor dispatch("batch-leader",
                            [](const FuCall&) { return Policy::P1; });
  FactorContext ctx;
  ctx.device = &device;
  FactorizeOptions options;
  options.batching = true;
  FactorizeResult result;
  ASSERT_NO_THROW(result = factorize(analysis, dispatch, ctx, options));

  constexpr auto kCorrupted =
      static_cast<std::size_t>(FaultKind::TransferCorruption);
  const FuCallRecord* leader_record = nullptr;
  for (const FuCallRecord& r : result.trace.calls) {
    if (r.snode == leader) leader_record = &r;
  }
  ASSERT_NE(leader_record, nullptr);
  EXPECT_EQ(leader_record->faults, 1) << "seed " << seed;
  EXPECT_EQ(leader_record->fault_kinds[kCorrupted], 1) << "seed " << seed;
  EXPECT_EQ(leader_record->batch, 1) << "seed " << seed;
  EXPECT_TRUE(
      testing_helpers::factors_bitwise_equal(reference.factor, result.factor));
}

TEST(ChaosTest, NanPoisonedPanelSurfacesInSolution) {
  // Silent-corruption detectability: a NaN written into a factor panel MUST
  // reach the solution, never be masked. The forward sweep used to skip
  // update scatters when the pivot entry was exactly 0.0 — with a zero
  // right-hand side that short-circuit silently swallowed every poisoned
  // panel (NaN * 0 was never evaluated) and returned a clean all-zero
  // "solution" from a corrupted factor.
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  const Analysis analysis = analyze_md(p.matrix);
  PolicyExecutor p1(Policy::P1);
  FactorContext ctx;
  FactorizeResult result = factorize(analysis, p1, ctx);

  // Poison one L21 entry (an update-row scatter coefficient) of the first
  // supernode that has update rows.
  bool poisoned = false;
  for (index_t s = 0; s < analysis.symbolic.num_supernodes(); ++s) {
    const SupernodeInfo& sn =
        analysis.symbolic.supernodes()[static_cast<std::size_t>(s)];
    if (sn.num_update_rows() > 0) {
      result.factor.panels[static_cast<std::size_t>(s)](sn.width(), 0) =
          std::numeric_limits<double>::quiet_NaN();
      poisoned = true;
      break;
    }
  }
  ASSERT_TRUE(poisoned) << "no supernode has update rows";

  const auto has_nan = [](std::span<const double> x) {
    for (double v : x) {
      if (std::isnan(v)) return true;
    }
    return false;
  };

  // The adversarial case: b == 0, so every x entry the poisoned scatter
  // multiplies is exactly 0.0.
  const std::vector<double> zeros(static_cast<std::size_t>(p.matrix.n()), 0.0);
  EXPECT_TRUE(has_nan(solve(analysis, result.factor, zeros)))
      << "zero-rhs solve masked a NaN-poisoned panel";

  // And the ordinary case, through the level-scheduled path as well.
  const auto b = rhs_for_ones(p.matrix);
  EXPECT_TRUE(has_nan(solve(analysis, result.factor, b)));
  Matrix<double> rhs(p.matrix.n(), 1);
  std::copy(zeros.begin(), zeros.end(), rhs.data());
  ParallelSolveOptions parallel_options;
  parallel_options.threads = 4;
  const Matrix<double> px =
      solve(analysis, result.factor, rhs, 1, parallel_options);
  EXPECT_TRUE(has_nan(
      std::span<const double>(px.data(), static_cast<std::size_t>(px.rows()))))
      << "parallel zero-rhs solve masked a NaN-poisoned panel";
}

TEST(ChaosTest, StickyDeathCompletesCpuOnly) {
  // A device that dies almost immediately: the run must complete on the
  // host pipeline with full double accuracy, not abort.
  Rng rng(9);
  const GridProblem p = make_elasticity_3d(4, 4, 3, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);

  Device::Options device_options;
  device_options.faults.seed = 2;
  device_options.faults.device_death_rate = 0.5;
  Device device(device_options);
  DispatchExecutor dispatch("chaos", always_p3);
  FactorContext ctx;
  ctx.device = &device;

  FactorizeResult result;
  ASSERT_NO_THROW(result = factorize(analysis, dispatch, ctx));
  EXPECT_TRUE(device.fault_injector().dead());
  EXPECT_GE(result.faults_survived, 1);

  const auto b = rhs_for_ones(p.matrix);
  const auto x = solve(analysis, result.factor, b);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(ChaosTest, AggressiveFaultsParallelRunStaysAccurate) {
  // Aggressive transient faults on every GPU worker: each faulted front
  // retries on-device or falls back to the host, and the factorization
  // still lands within the mixed-precision tolerance refinement can absorb.
  Rng rng(13);
  const GridProblem p = make_elasticity_3d(4, 4, 4, 3, rng);
  const Analysis analysis = analyze_md(p.matrix);

  ParallelFactorizeOptions options;
  options.workers.assign(2, WorkerSpec{.has_gpu = true});
  options.device.faults.seed = 4;
  options.device.faults.transient_kernel_rate = 0.2;
  FactorizeResult result;
  ASSERT_NO_THROW(result = factorize_parallel(
                      analysis, options, [&](const WorkerSpec&, int) {
                        return std::make_unique<DispatchExecutor>(
                            "chaos", always_p3, options.executor);
                      }));
  EXPECT_GE(result.faults_survived, 1);

  const auto b = rhs_for_ones(p.matrix);
  const RefineResult refined =
      solve_with_refinement(p.matrix, analysis, result.factor, b);
  EXPECT_LT(refined.residual_norms.back(), 1e-8);
}

TEST(ChaosTest, ServiceSessionHealsAfterNpdAndKeepsServing) {
  // A non-SPD matrix poisons a session mid-stream; the session must fail
  // that request alone, rebuild its solver, and serve the rest bitwise
  // exactly as a fresh solver would.
  const GridProblem p = make_laplacian_3d(5, 4, 4);
  const auto good = std::make_shared<SparseSpd>(p.matrix);
  std::vector<double> flipped(p.matrix.values().begin(),
                              p.matrix.values().end());
  for (double& v : flipped) v = -v;
  const auto bad = std::make_shared<SparseSpd>(
      p.matrix.n(),
      std::vector<index_t>(p.matrix.col_ptr().begin(),
                           p.matrix.col_ptr().end()),
      std::vector<index_t>(p.matrix.row_idx().begin(),
                           p.matrix.row_idx().end()),
      std::move(flipped));
  const auto b = rhs_for_ones(p.matrix);

  serve::ServeOptions options;
  options.num_sessions = 1;
  serve::SolverService service(options);

  const serve::SolveResult before = service.submit(good, b).get();
  ASSERT_TRUE(before.ok()) << before.error;
  const serve::SolveResult poisoned = service.submit(bad, b).get();
  EXPECT_EQ(poisoned.status, serve::RequestStatus::Failed);
  const serve::SolveResult after = service.submit(good, b).get();
  ASSERT_TRUE(after.ok()) << after.error;

  ASSERT_EQ(after.x.size(), before.x.size());
  for (std::size_t i = 0; i < after.x.size(); ++i) {
    EXPECT_EQ(after.x[i], before.x[i]) << "component " << i;
  }
  EXPECT_EQ(service.stats().failed, 1);
}

/// Integer arg lookup in a Chrome-trace event ("args" object), 0 if absent.
std::uint64_t trace_arg(const JsonValue& ev, const char* key) {
  const JsonValue* args = ev.find("args");
  if (args == nullptr) return 0;
  const JsonValue* value = args->find(key);
  return value == nullptr ? 0
                          : static_cast<std::uint64_t>(value->as_number());
}

TEST(ChaosTest, RequestTraceFollowsFaultedRequestToCompletion) {
  // The tracing acceptance scenario: one request admitted, its factor hit
  // by injected device faults (retried on the device, then redone on the
  // host), and completed — and the whole causal chain must be
  // reconstructible from the Chrome-trace export via parent-linked span ids
  // alone.
  const std::string trace_path =
      "chaos_request_trace_" +
      std::to_string(
          std::chrono::steady_clock::now().time_since_epoch().count()) +
      ".json";
  const obs::ObsConfig config = obs::make_config(trace_path, "");
  // The scope's export writes the trace and its derived metrics files;
  // remove all three however the test exits.
  struct RemoveExports {
    const obs::ObsConfig& config;
    ~RemoveExports() {
      std::remove(config.trace_path.c_str());
      std::remove(config.metrics_json_path.c_str());
      std::remove(config.metrics_csv_path.c_str());
    }
  } remove_exports{config};
  Rng rng(21);
  // Large enough that the baseline-hybrid thresholds route fronts WITH
  // update rows to the device (m = 0 roots skip the GPU entirely, so a
  // grid whose only big front is the root never faults).
  const GridProblem p = make_elasticity_3d(7, 7, 7, 3, rng);
  const auto a = std::make_shared<SparseSpd>(p.matrix);

  serve::SolveResult result;
  {
    obs::ObsScope scope(config);
    serve::ServeOptions options;
    // One session whose simulated GPU faults on (nearly) every kernel.
    options.num_sessions = 1;
    options.solver.device.faults.seed = 21;
    options.solver.device.faults.transient_kernel_rate = 0.999;
    serve::SolverService service(options);
    result = service.submit(a, rhs_for_ones(p.matrix)).get();
    service.shutdown(true);
  }  // scope end writes the Chrome trace

  ASSERT_TRUE(result.ok()) << result.error;
  const std::uint64_t rid = result.request_id;
  ASSERT_NE(rid, 0u);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());
  const auto& events = doc.at("traceEvents").items();

  // Index the wall-clock track by span id and pull out this request's story.
  std::map<std::uint64_t, const JsonValue*> by_span;
  const JsonValue* admit = nullptr;
  const JsonValue* complete = nullptr;
  const JsonValue* fault = nullptr;
  int queue_waits = 0;
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const JsonValue& ev : events) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "s") ++flow_starts;
    if (ph->as_string() == "f") ++flow_finishes;
    if (ph->as_string() != "X" ||
        static_cast<int>(ev.at("pid").as_number()) != 1) {
      continue;
    }
    const std::uint64_t span_id = trace_arg(ev, "span_id");
    if (span_id != 0) by_span.emplace(span_id, &ev);
    if (trace_arg(ev, "request_id") != rid) continue;
    const std::string& name = ev.at("name").as_string();
    if (name == "admit") admit = &ev;
    if (name == "complete") complete = &ev;
    if (ev.at("cat").as_string() == "fault" && fault == nullptr) fault = &ev;
    if (name == "queue_wait") ++queue_waits;
  }

  // Admission root: the only span of the request without a parent.
  ASSERT_NE(admit, nullptr);
  const std::uint64_t root = trace_arg(*admit, "span_id");
  ASSERT_NE(root, 0u);
  EXPECT_EQ(trace_arg(*admit, "parent_span"), 0u);

  // The request waited in the queue once and completes off the admission
  // root.
  EXPECT_EQ(queue_waits, 1);
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(trace_arg(*complete, "parent_span"), root);

  // The injected fault is stamped with the request id, and its parent chain
  // walks all the way back to the admission span — the "causal tree" the
  // export promises.
  ASSERT_NE(fault, nullptr) << "no fault span carries request " << rid;
  const JsonValue* cursor = fault;
  int hops = 0;
  while (trace_arg(*cursor, "parent_span") != 0) {
    ASSERT_LT(++hops, 64) << "parent chain does not terminate";
    const auto it = by_span.find(trace_arg(*cursor, "parent_span"));
    ASSERT_NE(it, by_span.end()) << "dangling parent_span";
    cursor = it->second;
  }
  EXPECT_EQ(cursor->at("name").as_string(), "admit");
  EXPECT_EQ(trace_arg(*cursor, "request_id"), rid);

  // Cross-thread links (admission -> session pickup) are also stitched as
  // Chrome flow events.
  EXPECT_GT(flow_starts, 0);
  EXPECT_EQ(flow_starts, flow_finishes);
}

}  // namespace
}  // namespace mfgpu
