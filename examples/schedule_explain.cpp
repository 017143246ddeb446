// Schedule explainability walkthrough: record a factorization's virtual
// schedule with the flight recorder, extract the critical path ("why is
// the makespan what it is"), then ask what-if questions ("what change
// would shorten it"). Rate questions replay the record exactly without
// re-running any numerics; structural questions (more workers, another
// policy) rerun the factorization on the same deterministic engine.
//
// The same surfaces are scriptable through tools/mfgpu_explain.
#include <cstdio>
#include <iostream>

#include "cluster/cluster.hpp"
#include "obs/schedule_record.hpp"
#include "obs/whatif.hpp"
#include "ordering/minimum_degree.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  const GridProblem problem = make_laplacian_3d(14, 13, 11);
  const Analysis analysis =
      analyze(problem.matrix, minimum_degree(build_graph(problem.matrix)));

  // Two workers as shared-memory nodes of the fan-both engine, each with
  // its own GPU dispatching the baseline hybrid: a deterministic schedule
  // that a rerun can be compared to.
  ClusterFactorizeOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.link = shared_memory_link();
  obs::ScheduleRecorder recorder;  // the flight recorder: a few dozen bytes
                                   // per timing event
  options.numeric.recorder = &recorder;
  const double makespan =
      factorize_cluster(analysis, options).trace.total_time;
  const obs::ScheduleRecord record = recorder.take();
  std::printf("factored n=%lld in %.4f virtual s on 2 GPU workers\n\n",
              static_cast<long long>(problem.matrix.n()), makespan);

  // 1. Why: per-cost-class makespan attribution, task spine, CPM slack.
  const obs::CriticalPathReport report = obs::analyze_critical_path(record);
  report.write_text(std::cout);

  // 2. Sanity: the null counterfactual replays the recorded schedule
  //    operation for operation — the makespan matches bitwise.
  const obs::WhatIfResult null_replay =
      obs::whatif_replay(record, obs::WhatIfKnobs{});
  std::printf("\nnull replay: %.17g s (recorded %.17g s, %s)\n",
              null_replay.makespan, record.makespan,
              null_replay.makespan == record.makespan ? "bitwise equal"
                                                      : "MISMATCH");

  // 3. What if: re-time the recorded DAG under faster resources.
  struct Question {
    const char* ask;
    obs::WhatIfKnobs knobs;
  };
  Question questions[] = {
      {"a 2x faster GPU", {}},
      {"a 2x faster PCIe link", {}},
  };
  questions[0].knobs.gpu_scale = 2.0;
  questions[1].knobs.transfer_scale = 2.0;
  for (const Question& q : questions) {
    const obs::WhatIfResult r = obs::whatif_replay(record, q.knobs);
    std::printf("what if %-32s %.4f s (%.2fx, exact replay)\n", q.ask,
                r.makespan, r.speedup);
  }

  // 4. What if the configuration changed: rerun it.
  auto rerun = [&](const char* ask, ClusterFactorizeOptions changed) {
    changed.numeric.recorder = nullptr;
    const double other = factorize_cluster(analysis, changed).trace.total_time;
    std::printf("what if %-32s %.4f s (%.2fx, rerun)\n", ask, other,
                makespan / other);
  };
  ClusterFactorizeOptions four = options;
  four.cluster.num_nodes = 4;
  rerun("4 workers instead of 2", four);
  ClusterFactorizeOptions host_only = options;
  host_only.cluster.nodes_have_gpu = false;
  rerun("policy P1 (host-only)", host_only);
  return 0;
}
