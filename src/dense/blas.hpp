// Level-3 BLAS kernels implemented from scratch (the paper offloads exactly
// these to ATLAS on the host and CUBLAS on the GPU: gemm, syrk, trsm).
//
// Only the variants the multifrontal algorithm needs are implemented, each
// for the full shape range in float and double. All matrices are
// column-major. gemm, syrk and both trsms run on one packed,
// register-blocked micro-kernel with cache blocking, compiled for AVX-512F,
// AVX2+FMA and the SSE2 baseline and chosen once at run time for the widest
// set this CPU supports (dense/kernels.hpp). This is the host speed every
// factorization driver, the simulated device's float kernels and the
// supernodal solve run at. Results depend on the operand values and shape
// only, never on alignment, leading dimension or the calling thread, so the
// drivers' factors stay bitwise identical; and each column of a result
// depends on its own column of B alone, so a block solve is bitwise the
// one-column solves. A NaN or Inf in any operand reaches the result: no
// kernel skips a zero multiplier.
#pragma once

#include "dense/matrix.hpp"
#include "support/error.hpp"

namespace mfgpu {

enum class Trans { NoTrans, Transpose };
enum class Uplo { Lower, Upper };
enum class Side { Left, Right };
enum class Diag { NonUnit, Unit };

/// C := alpha * op(A) * op(B) + beta * C.
/// op(A) is (M x K), op(B) is (K x N), C is (M x N).
template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, const MatrixView<const T>& a,
          const MatrixView<const T>& b, T beta, const MatrixView<T>& c);

/// Symmetric rank-k update, lower triangle only:
/// C := alpha * A * A^T + beta * C with A (N x K), C (N x N).
/// This is the paper's syrk kernel (U^n -= L2 * L2^T uses alpha = -1).
template <typename T>
void syrk_lower(T alpha, const MatrixView<const T>& a, T beta,
                const MatrixView<T>& c);

/// Triangular solve with multiple right-hand sides.
/// Side::Right, Trans::Transpose, Uplo::Lower solves X * L^T = B in place
/// (the paper's trsm: L2 := L2 * L1^{-T}).
/// Side::Left solves L * X = B (NoTrans) or L^T * X = B (Transpose) in
/// place: the supernodal solve's pivot blocks.
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          const MatrixView<const T>& a, const MatrixView<T>& b);

/// Number of floating point operations for each kernel, following the
/// paper's asymptotic counts (Section IV-B): potrf k^3/3, trsm m k^2,
/// syrk m^2 k (counting multiply-add as 2 flops would double these; we keep
/// the paper's convention so rates are comparable with Table III).
index_t potrf_ops(index_t k);
index_t trsm_ops(index_t m, index_t k);
index_t syrk_ops(index_t m, index_t k);
index_t gemm_ops(index_t m, index_t n, index_t k);

}  // namespace mfgpu
