// Deterministic simulated-cost accounting for the serving layer.
//
// The service's throughput metrics must be machine-independent (the bench
// regression gate compares them against checked-in baselines), so each
// request is priced in SIMULATED seconds, in the same spirit as the gpusim
// cost models: the analysis charge below, Solver::factor_time() for the
// numeric phase, and Solver::solve_time_estimate for the solves.
#pragma once

#include "sparse/csc.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace mfgpu::serve {

/// Simulated host seconds for the full symbolic analysis of `a` (ordering +
/// elimination tree + supernode formation + per-supernode row structure).
/// Modeled as cache-unfriendly combinatorial passes: the quotient-graph
/// minimum-degree elimination touches each adjacency entry many times with
/// irregular access, and the symbolic structure pass streams the factor
/// pattern once. This is the charge a warm AnalysisCache saves per request.
double estimated_analyze_seconds(const SparseSpd& a,
                                 const SymbolicFactor& sym);

}  // namespace mfgpu::serve
