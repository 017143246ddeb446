// Dense Cholesky factorization (lower variant), blocked and unblocked.
//
// potrf is the pivot-block step of the paper's factor-update operation
// (Fig. 1). The blocked version is right-looking like LAPACK's dpotrf and
// gets its speed from the packed trsm/syrk panels; the unblocked version
// (unit-stride column updates, vectorized for the selected instruction set)
// is its pivot-block kernel and doubles as the w x w "light-weight GPU
// kernel" of the paper's on-GPU policy P4 (Fig. 9).
#pragma once

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace mfgpu {

/// Unblocked lower Cholesky of the leading square of `a` in place.
/// Throws NotPositiveDefiniteError on a non-positive pivot; `column_offset`
/// is added to the reported column so callers can give global indices.
template <typename T>
void potrf_unblocked(MatrixView<T> a, index_t column_offset = 0);

/// Blocked lower Cholesky in place with panel width `block`.
template <typename T>
void potrf(MatrixView<T> a, index_t block = 64, index_t column_offset = 0);

}  // namespace mfgpu
