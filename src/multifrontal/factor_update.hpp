// The factor-update (F-U) abstraction: the dense block Cholesky step the
// paper's whole analysis revolves around (Fig. 1). The multifrontal driver
// assembles a frontal matrix and hands its three blocks to an FuExecutor;
// the policy module provides executors P1-P4 and the hybrid dispatchers.
#pragma once

#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "gpusim/device.hpp"
#include "gpusim/gpublas.hpp"
#include "multifrontal/fu_call.hpp"
#include "multifrontal/trace.hpp"

namespace mfgpu {

/// Shared execution state for one factorization run: the host virtual
/// clock, the calibrated host model, and (optionally) a simulated GPU.
struct FactorContext {
  SimClock host_clock;
  ProcessorModel host_model = xeon5160_model();
  Device* device = nullptr;  ///< null = CPU-only run
  bool numeric = true;       ///< false = timing-only dry run

  HostExec host_exec() {
    return HostExec{&host_clock, &host_model, numeric};
  }
  GpuExec gpu_exec(Stream& stream) {
    MFGPU_CHECK(device != nullptr, "FactorContext: no device attached");
    return GpuExec{device, &stream, &host_clock};
  }
};

/// The three blocks of a fully assembled frontal matrix F^n (Fig. 1):
/// L1 (k x k pivot block, lower), L2 (m x k sub-diagonal block), and the
/// update matrix U (m x m, lower). Views alias the front's storage; after
/// execution L1/L2 contain factor columns and U the update matrix.
///
/// FrontBlocks IS a FuCall (the call descriptor: snode, m, k, level, flops,
/// global_col) plus the storage views — every layer below the driver takes
/// either the full blocks or just the FuCall slice.
struct FrontBlocks : FuCall {
  MatrixView<double> l1;
  MatrixView<double> l2;
  MatrixView<double> u;

  const FuCall& call() const noexcept { return *this; }
};

/// Outcome of one F-U call: component times plus the virtual time at which
/// the update matrix becomes safe to consume (device copies may still be in
/// flight when the executor returns — the paper's copy/compute overlap).
struct FuOutcome {
  FuCallRecord record;
  double update_ready_at = 0.0;
};

/// Builds shape-only blocks for dry (timing-only) runs: views carry correct
/// dimensions but must never be dereferenced.
FrontBlocks make_shape_blocks(index_t m, index_t k, index_t global_col = 0);
FrontBlocks make_shape_blocks(const FuCall& call);

/// Interface implemented by the four policies and the hybrid dispatchers.
class FuExecutor {
 public:
  virtual ~FuExecutor() = default;
  /// Factor the front in place. Must advance ctx.host_clock by the host
  /// time consumed and fill the outcome record.
  virtual FuOutcome execute(FrontBlocks front, FactorContext& ctx) = 0;
  /// Factor a group of independent fronts (no ancestor relations between
  /// them). The default runs the singles loop; dispatchers that know how to
  /// aggregate (one launch + one transfer per batch) override it. Returns
  /// one outcome per front, in input order.
  virtual std::vector<FuOutcome> execute_batch(std::span<FrontBlocks> fronts,
                                               FactorContext& ctx) {
    std::vector<FuOutcome> outcomes;
    outcomes.reserve(fronts.size());
    for (FrontBlocks& front : fronts) {
      outcomes.push_back(execute(front, ctx));
    }
    return outcomes;
  }
  /// One-time preparation before a factorization: executors that use the
  /// device size their memory pools for the maximal front dimensions known
  /// from the symbolic analysis (the paper's high-water-mark policy then
  /// never pays an allocation mid-run, like WSMP's symbolic-driven
  /// preallocation). Charges its cost to the context's host clock.
  virtual void prepare(index_t /*max_m*/, index_t /*max_k*/,
                       FactorContext& /*ctx*/) {}
  /// Human-readable name for reports.
  virtual const char* name() const = 0;
  /// Device faults this executor detected and survived (fault-tolerant
  /// dispatchers override; plain executors never detect faults).
  virtual std::int64_t fault_count() const { return 0; }
};

}  // namespace mfgpu
