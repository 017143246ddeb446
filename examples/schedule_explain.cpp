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

#include "core/solver.hpp"
#include "obs/whatif.hpp"
#include "sparse/generators.hpp"

using namespace mfgpu;

int main() {
  const GridProblem problem = make_laplacian_3d(14, 13, 11);

  // Two workers as shared-memory nodes of the fan-both engine, each with
  // its own GPU: a deterministic schedule that a rerun can be compared to.
  SolverOptions options;
  options.mode = SolverMode::BaselineHybrid;
  options.record_schedule = true;  // the flight recorder: a few dozen
                                   // bytes per timing event, off by default
  options.cluster = parse_cluster("2,shared");
  const Solver solver(problem.matrix, options);
  std::printf("factored n=%lld in %.4f virtual s on 2 GPU workers\n\n",
              static_cast<long long>(problem.matrix.n()),
              solver.factor_time());

  // 1. Why: per-cost-class makespan attribution, task spine, CPM slack.
  const obs::CriticalPathReport report = solver.schedule_report();
  report.write_text(std::cout);

  // 2. Sanity: the null counterfactual replays the recorded schedule
  //    operation for operation — the makespan matches bitwise.
  const obs::WhatIfResult null_replay =
      solver.schedule_whatif(obs::WhatIfKnobs{});
  std::printf("\nnull replay: %.17g s (recorded %.17g s, %s)\n",
              null_replay.makespan, solver.schedule().makespan,
              null_replay.makespan == solver.schedule().makespan
                  ? "bitwise equal"
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
    const obs::WhatIfResult r = solver.schedule_whatif(q.knobs);
    std::printf("what if %-32s %.4f s (%.2fx, exact replay)\n", q.ask,
                r.makespan, r.speedup);
  }

  // 4. What if the configuration changed: rerun it.
  auto rerun = [&](const char* ask, SolverOptions changed) {
    changed.record_schedule = false;
    const Solver other(problem.matrix, changed);
    std::printf("what if %-32s %.4f s (%.2fx, rerun)\n", ask,
                other.factor_time(),
                solver.factor_time() / other.factor_time());
  };
  SolverOptions four = options;
  four.cluster = parse_cluster("4,shared");
  rerun("4 workers instead of 2", four);
  SolverOptions host_only = options;
  host_only.mode = SolverMode::Serial;
  rerun("policy P1 (host-only)", host_only);
  return 0;
}
