// Simulated distributed-cluster factorization — the paper's named future
// work ("a distributed-memory version of the solver") executed as real
// numerics over simulated nodes. It is a library driver, not a Solver
// mode: Table VII's multi-worker columns, bench_cluster_scaling and the
// examples call factorize_cluster directly.
//
// Model
//   - Elimination subtrees map to simulated cluster nodes: the proportional
//     mapping seeds the placement and a greedy refinement trades residual
//     load imbalance against interconnect cost (cluster/placement.hpp).
//   - Each node is a FrontWorker (multifrontal/front_step.hpp) owning its
//     full execution state — a FactorContext (virtual host clock),
//     optionally a private simulated Device, an FuExecutor, and a
//     StackArena for its fronts — and runs the same front step as every
//     other driver; the engine only decides the order and the node.
//   - A child placed on another node ships its PACKED update matrix to the
//     parent's node as a sized message over an InterconnectModel link
//     (sched/interconnect.hpp). Messages serialize on the producer's
//     egress lane and the consumer's ingress lane (one virtual-time lane
//     each per node), so transfers overlap compute on both sides instead
//     of charging the whole wire time to the critical path.
//   - The asynchronous fan-both engine has NO global level barriers: any
//     task whose children's updates have (virtually) arrived may run, and
//     the engine always picks the ready task with the earliest estimated
//     start (critical-path bottom level breaks ties). The LevelSync engine
//     runs the same numerics with a barrier after every elimination-tree
//     level — the reference the fan-both speedup is measured against
//     (bench/bench_cluster_scaling.cpp).
//
// Determinism: children are extend-added in the serial driver's order
// (descending child index) and device-fault fates are a pure function of
// (seed, front, op) — never of placement — so the cluster factor is
// BITWISE identical to the serial factorize() for every node count, link
// speed, engine, and fault seed.
//
// Nodes never fail: the only simulated failure source is each node's
// device fault injector (gpusim/fault_injector.hpp), answered inside the
// node's dispatcher, so a task always runs on the node its placement chose.
//
// Aggregated small-front batching (multifrontal/batched.hpp) is a
// per-node device concern orthogonal to this simulation; the cluster
// engine always dispatches per-front and ignores FactorizeOptions::
// batching (the batched factor is bitwise identical anyway).
#pragma once

#include <cstdint>

#include "cluster/placement.hpp"
#include "multifrontal/parallel.hpp"
#include "sched/interconnect.hpp"

namespace mfgpu {

enum class ClusterEngine {
  FanBoth = 0,   ///< asynchronous: no global barriers (the default)
  LevelSync = 1  ///< barrier after every elimination-tree level
};

const char* cluster_engine_name(ClusterEngine engine) noexcept;

/// Knobs for the simulated cluster.
struct ClusterOptions {
  /// Simulated node count (at least 1).
  int num_nodes = 1;
  /// Inter-node link for update-matrix messages.
  InterconnectModel link = infiniband_link();
  ClusterEngine engine = ClusterEngine::FanBoth;
  /// Give every node a private simulated GPU (hybrid dispatch); off = all
  /// nodes run host-only P1.
  bool nodes_have_gpu = true;
};

/// Simulated-schedule outcomes of one cluster factorization.
struct ClusterStats {
  int num_nodes = 0;
  ClusterEngine engine = ClusterEngine::FanBoth;
  double makespan = 0.0;           ///< max node virtual clock
  double max_node_seconds = 0.0;   ///< busiest node's clock (== makespan)
  /// Interconnect traffic: cross-node update-matrix messages actually sent.
  std::int64_t messages = 0;
  double bytes_on_wire = 0.0;
  double send_busy_seconds = 0.0;  ///< total egress-lane busy time
  /// Placement objective after refinement (cluster/placement.hpp).
  double placement_refined_cost = 0.0;
  int placement_moves = 0;
};

struct ClusterFactorizeOptions {
  ClusterOptions cluster;
  /// Storage and the schedule flight recorder (one lane per node; remote
  /// message arrivals are recorded as Transfer-class waits, so the
  /// critical-path analyzer attributes wire stalls and what-if replay scales
  /// them with transfer_scale). Batching is ignored (see header comment).
  FactorizeOptions numeric;
  ExecutorOptions executor;
  /// Template for each GPU-bearing node's private device (fault injection
  /// included — per-front fault fates stay placement-independent).
  Device::Options device;
};

/// Factor `analysis` on the simulated cluster. Matches factorize()'s
/// contract (panels, trace, error propagation); trace.total_time is the
/// cluster's virtual makespan. `make_executor` builds each node's executor
/// (default: GPU nodes dispatch the paper's baseline hybrid, CPU nodes run
/// P1); `stats_out` (optional) receives the schedule/traffic statistics;
/// `recycled` is an earlier factor whose store is overwritten in place.
FactorizeResult factorize_cluster(const Analysis& analysis,
                                  const ClusterFactorizeOptions& options = {},
                                  const WorkerExecutorFactory& make_executor = {},
                                  ClusterStats* stats_out = nullptr,
                                  Factorization recycled = {});

}  // namespace mfgpu
