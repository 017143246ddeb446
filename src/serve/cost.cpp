#include "serve/cost.hpp"

#include "gpusim/gpublas.hpp"

namespace mfgpu::serve {

double estimated_analyze_seconds(const SparseSpd& a,
                                 const SymbolicFactor& sym) {
  // Ordering: the quotient-graph minimum-degree loop revisits each
  // adjacency entry on every degree update of an incident vertex —
  // effectively a few dozen irregular touches per stored entry. Symbolic
  // structure: one streamed pass over the factor pattern per supernode row
  // merge. Both priced at the host assembly rate used by the other
  // host-side estimates; the irregularity is folded into the touch counts.
  const double ordering_touches =
      48.0 * static_cast<double>(a.nnz_full()) +
      16.0 * static_cast<double>(a.n());
  const double symbolic_touches = 4.0 * static_cast<double>(sym.factor_nnz());
  return (ordering_touches + symbolic_touches) / host_assembly_rate();
}

}  // namespace mfgpu::serve
