// Instruction-set variants of the dense kernels (internal to src/dense and
// its tests).
//
// Every kernel in blas.hpp/potrf.hpp runs on one packed, register-blocked
// micro-kernel, C(mr x nr) += sum_p a_p b_p^T over packed panels, in the
// BLIS/GotoBLAS style. The same source is compiled for AVX-512F, AVX2+FMA and
// the x86-64 baseline (SSE2) through function target attributes; the widest
// variant the CPU supports is selected once, on first use, and the public
// entry points always run it. The functions below take the variant
// explicitly so tests can run every variant the host supports. They are not
// a user setting.
//
// Summation order: in gemm and syrk each element's terms are summed in
// ascending p over one kc-deep block at a time, from zero, one multiply-add
// per term, and each block's sum is added to C in ascending block order.
// Whether a multiply-add is fused belongs to the variant (AVX-512 and AVX2
// fuse every one, SSE2 none), never to the vector width or loop step that
// computes the element. The unpacked leaf that takes tiny and narrow
// products does the same operations, block by block. The right trsm
// subtracts the gemm updates of the diagonal blocks to an element's left in
// the same way, then the leaf's terms one by one. The left trsm does the
// same down each column of B: the gemm updates of the diagonal blocks above
// the element (L X = B) or below it (L^T X = B), then its leaf's terms one
// by one, nearest the diagonal last (ascending p for L, descending p for
// L^T), then the multiply by the reciprocal pivot. Its leaf solves blocks of
// columns one per vector lane and the columns left one at a time; a lane
// and a single column take the same operations. Packing, tiling and the
// choice between the packed path and the leaf decide only which elements
// are computed together, never the terms of an element or their order. So
// an element's bits depend on its row of op(A), its column of op(B), its
// entry of C, the depth and the fixed block sizes alone: not on the other
// rows or columns of the product (column j of an m x r gemm is bitwise the
// m x 1 gemm of column j), pointer alignment, leading dimension or the
// calling thread.
#pragma once

#include <vector>

#include "dense/blas.hpp"

namespace mfgpu::dense {

enum class Isa { Sse2, Avx2, Avx512 };

const char* isa_name(Isa isa);

/// The variants this build compiled that this CPU can run, widest first.
/// Sse2 (the baseline) is always present.
std::vector<Isa> supported_isas();

/// The widest supported variant; the public kernels run it.
Isa selected_isa();

/// Cache-blocking sizes in elements, the same for every variant of T: a
/// packed A block is mc x kc, a packed B block kc x nc (mc a multiple of
/// every variant's mr, nc of every nr). They bound the per-thread pack
/// buffer, which both precisions share: 768 KiB.
template <typename T>
struct Blocking;
template <>
struct Blocking<float> {
  static constexpr index_t mc = 192, kc = 256, nc = 384;
};
template <>
struct Blocking<double> {
  static constexpr index_t mc = 128, kc = 192, nc = 384;
};

/// Products of depth k <= kSmallDepth, of at most kSmallCols columns, or of
/// at most kSmallWork multiply-adds (m * n * k) skip packing: there packing
/// and the padded micro-tile cost more than the arithmetic they feed (a
/// one-column product would fill 1 of the tile's nr columns).
inline constexpr index_t kSmallDepth = 4;
inline constexpr index_t kSmallCols = 2;
inline constexpr index_t kSmallWork = 512;

/// Width of the diagonal blocks of the right trsm.
inline constexpr index_t kTrsmBlock = 64;

/// The largest micro-tile of any variant (float on AVX-512).
inline constexpr index_t kMaxTileRows = 32;
inline constexpr index_t kMaxTileCols = 12;

/// The instruction-set-specific leaves of one variant in precision T.
template <typename T>
struct Leaves {
  index_t mr = 0;  ///< micro-tile rows
  index_t nr = 0;  ///< micro-tile columns
  /// C(mr x nr, leading dimension ldc) += sum_{p<kc} a_p b_p^T, where a is
  /// kc packed columns of mr and b kc packed rows of nr; the sum is formed
  /// from zero in ascending p, then added to C (stored, with `overwrite`).
  void (*micro)(index_t kc, const T* a, const T* b, T* c, index_t ldc,
                bool overwrite);
  /// C(m x n) += alpha * op(A) * op(B), or its lower triangle with `lower`,
  /// unpacked: op(A)(i, p) = a[i * ras + p * cas], op(B)(p, j) =
  /// b[p * rbs + j * cbs]. The same operations per element as the packed
  /// path for one block of k <= kc; deeper products are split by the caller.
  void (*small)(index_t m, index_t n, index_t k, T alpha, const T* a,
                index_t ras, index_t cas, const T* b, index_t rbs,
                index_t cbs, T* c, index_t ldc, bool lower);
  /// B(m x nb) := B * L^{-T} for the nb x nb lower-triangular L whose
  /// reciprocal diagonal is `inv`.
  void (*trsm_rlt)(index_t m, index_t nb, const T* l, index_t ldl,
                   const T* inv, T* b, index_t ldb);
  /// B(n x cols) := L^{-1} B, or L^{-T} B with `transpose`, for the n x n
  /// lower-triangular L (n <= kTrsmBlock) whose reciprocal diagonal is
  /// `inv`.
  void (*trsm_left)(bool transpose, index_t n, index_t cols, const T* l,
                    index_t ldl, const T* inv, T* b, index_t ldb);
  /// Unblocked lower Cholesky of the n x n block in place; returns the first
  /// column whose pivot is not positive (its updated value left at the
  /// diagonal), or -1.
  index_t (*potrf)(index_t n, T* a, index_t lda);
};

template <typename T>
const Leaves<T>& leaves(Isa isa);

template <typename T>
void gemm(Isa isa, Trans trans_a, Trans trans_b, T alpha,
          const MatrixView<const T>& a, const MatrixView<const T>& b, T beta,
          const MatrixView<T>& c);

template <typename T>
void syrk_lower(Isa isa, T alpha, const MatrixView<const T>& a, T beta,
                const MatrixView<T>& c);

template <typename T>
void trsm(Isa isa, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          const MatrixView<const T>& a, const MatrixView<T>& b);

template <typename T>
void potrf_unblocked(Isa isa, MatrixView<T> a, index_t column_offset);

template <typename T>
void potrf(Isa isa, MatrixView<T> a, index_t block, index_t column_offset);

}  // namespace mfgpu::dense
