#include "dense/potrf.hpp"

#include <algorithm>

#include "dense/kernels.hpp"

namespace mfgpu {
namespace dense {

template <typename T>
void potrf_unblocked(Isa isa, MatrixView<T> a, index_t column_offset) {
  MFGPU_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  const index_t bad = leaves<T>(isa).potrf(a.rows(), a.data(), a.ld());
  if (bad >= 0) {
    throw NotPositiveDefiniteError(column_offset + bad,
                                   static_cast<double>(a(bad, bad)));
  }
}

template <typename T>
void potrf(Isa isa, MatrixView<T> a, index_t block, index_t column_offset) {
  MFGPU_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  MFGPU_CHECK(block > 0, "potrf: block must be positive");
  const index_t n = a.rows();
  for (index_t j0 = 0; j0 < n; j0 += block) {
    const index_t jb = std::min(block, n - j0);
    auto pivot_block = a.block(j0, j0, jb, jb);
    potrf_unblocked(isa, pivot_block, column_offset + j0);

    const index_t rest = n - j0 - jb;
    if (rest == 0) continue;
    auto below = a.block(j0 + jb, j0, rest, jb);
    trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
            T{1}, pivot_block, below);
    syrk_lower<T>(isa, T{-1}, below, T{1},
                  a.block(j0 + jb, j0 + jb, rest, rest));
  }
}

template void potrf_unblocked<float>(Isa, MatrixView<float>, index_t);
template void potrf_unblocked<double>(Isa, MatrixView<double>, index_t);
template void potrf<float>(Isa, MatrixView<float>, index_t, index_t);
template void potrf<double>(Isa, MatrixView<double>, index_t, index_t);

}  // namespace dense

template <typename T>
void potrf_unblocked(MatrixView<T> a, index_t column_offset) {
  dense::potrf_unblocked(dense::selected_isa(), a, column_offset);
}

template <typename T>
void potrf(MatrixView<T> a, index_t block, index_t column_offset) {
  dense::potrf(dense::selected_isa(), a, block, column_offset);
}

template void potrf_unblocked<float>(MatrixView<float>, index_t);
template void potrf_unblocked<double>(MatrixView<double>, index_t);
template void potrf<float>(MatrixView<float>, index_t, index_t);
template void potrf<double>(MatrixView<double>, index_t, index_t);

}  // namespace mfgpu
