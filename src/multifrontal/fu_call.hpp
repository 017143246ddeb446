// FuCall — the one descriptor every factor-update surface speaks.
//
// Historically the executor, timer, and dispatcher layers all passed
// parallel positional `(m, k, ...)` argument lists; adding a field (etree
// level, flop count) meant touching every signature. FuCall carries the
// call's identity once: the drivers fill it when they build a front, and
// FrontBlocks, choosers, and predictors all derive from or embed it. The
// call's outcome (FuCallRecord, multifrontal/trace.hpp) repeats only the
// snode and (m, k) the audits re-price.
//
// This header is deliberately dependency-light (support/error.hpp only) so
// observability headers can embed FuCall without pulling in the dense or
// gpusim layers.
#pragma once

#include "support/error.hpp"

namespace mfgpu {

/// Identity of one factor-update call.
struct FuCall {
  index_t snode = -1;      ///< supernode / front id (-1 = synthetic shape)
  index_t m = 0;           ///< update-matrix dimension (rows below pivot)
  index_t k = 0;           ///< pivot-block width (columns factored)
  index_t level = 0;       ///< etree height: 0 = leaf, parents above children
  double flops = 0.0;      ///< total asymptotic ops (k^3/3 + m k^2 + m^2 k)
  index_t global_col = 0;  ///< first global column, for pivot error reports
};

}  // namespace mfgpu
