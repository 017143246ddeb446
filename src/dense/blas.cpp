#include "dense/blas.hpp"

#include <algorithm>
#include <memory>

#include "dense/kernels.hpp"

namespace mfgpu {
namespace dense {
namespace {

/// Bytes of one packed A block (mc x kc) plus one packed B block (kc x nc).
template <typename T>
constexpr std::size_t pack_bytes() {
  using Block = Blocking<T>;
  return static_cast<std::size_t>(Block::kc * (Block::mc + Block::nc)) *
         sizeof(T);
}

/// The per-thread pack buffer, shared by both precisions (a thread runs one
/// kernel at a time). It is allocated on the thread's first packed call and
/// sized by the cache blocking, never by the operands.
class PackBuffer {
 public:
  PackBuffer()
      : storage_(std::make_unique_for_overwrite<unsigned char[]>(kBytes +
                                                                 kAlign)) {
    void* base = storage_.get();
    std::size_t space = kBytes + kAlign;
    data_ = std::align(kAlign, kBytes, base, space);
  }

  /// The packed A block; the B block follows it (kc * mc * sizeof(T) is a
  /// multiple of 64 bytes).
  template <typename T>
  T* a() const {
    return static_cast<T*>(data_);
  }
  template <typename T>
  T* b() const {
    return a<T>() + Blocking<T>::mc * Blocking<T>::kc;
  }

  static const PackBuffer& local() {
    thread_local const PackBuffer buffer;
    return buffer;
  }

 private:
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kBytes =
      std::max(pack_bytes<float>(), pack_bytes<double>());
  std::unique_ptr<unsigned char[]> storage_;
  void* data_ = nullptr;
};

/// Packs rows [i0, i0 + m) and columns [p0, p0 + k) of op(A), times alpha,
/// as panels of mr rows: panel r holds k columns of mr contiguous elements,
/// the last panel zero-padded.
template <typename T>
void pack_a(Trans trans, T alpha, MatrixView<const T> a, index_t i0,
            index_t p0, index_t m, index_t k, index_t mr, T* dst) {
  for (index_t r0 = 0; r0 < m; r0 += mr, dst += mr * k) {
    const index_t rows = std::min(mr, m - r0);
    if (trans == Trans::NoTrans) {
      for (index_t p = 0; p < k; ++p) {
        const T* src = &a(i0 + r0, p0 + p);
        T* d = dst + p * mr;
        for (index_t i = 0; i < rows; ++i) d[i] = alpha * src[i];
        std::fill(d + rows, d + mr, T{});
      }
      continue;
    }
    for (index_t i = 0; i < rows; ++i) {
      const T* src = &a(p0, i0 + r0 + i);
      for (index_t p = 0; p < k; ++p) dst[i + p * mr] = alpha * src[p];
    }
    if (rows < mr) {
      for (index_t p = 0; p < k; ++p) {
        std::fill(dst + p * mr + rows, dst + (p + 1) * mr, T{});
      }
    }
  }
}

/// Packs rows [p0, p0 + k) and columns [j0, j0 + n) of op(B) as panels of nr
/// columns: panel s holds k rows of nr contiguous elements, the last panel
/// zero-padded.
template <typename T>
void pack_b(Trans trans, MatrixView<const T> b, index_t p0, index_t j0,
            index_t k, index_t n, index_t nr, T* dst) {
  for (index_t c0 = 0; c0 < n; c0 += nr, dst += nr * k) {
    const index_t cols = std::min(nr, n - c0);
    if (trans == Trans::NoTrans) {
      for (index_t j = 0; j < cols; ++j) {
        const T* src = &b(p0, j0 + c0 + j);
        for (index_t p = 0; p < k; ++p) dst[j + p * nr] = src[p];
      }
    } else {
      for (index_t p = 0; p < k; ++p) {
        const T* src = &b(j0 + c0, p0 + p);
        std::copy(src, src + cols, dst + p * nr);
      }
    }
    if (cols < nr) {
      for (index_t p = 0; p < k; ++p) {
        std::fill(dst + p * nr + cols, dst + (p + 1) * nr, T{});
      }
    }
  }
}

/// C += alpha * op(A) * op(B) over the whole of C or, with `lower`, over its
/// lower triangle only (C square). Tiny products go to the unpacked leaf;
/// the rest through the micro-kernel. Full tiles are updated in place. Tiles
/// at C's edge, and tiles that straddle the diagonal, are computed into a
/// scratch tile and added to the elements to update only, so nothing
/// outside them is read or written.
template <typename T>
void update(const Leaves<T>& lv, Trans trans_a, Trans trans_b, T alpha,
                   MatrixView<const T> a, MatrixView<const T> b,
                   MatrixView<T> c, bool lower) {
  using Block = Blocking<T>;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (trans_a == Trans::NoTrans) ? a.cols() : a.rows();
  if (k <= kSmallDepth || m * n * k <= kSmallWork) {
    const bool na = trans_a == Trans::NoTrans;
    const bool nb = trans_b == Trans::NoTrans;
    lv.small(m, n, k, alpha, a.data(), na ? 1 : a.ld(), na ? a.ld() : 1,
             b.data(), nb ? 1 : b.ld(), nb ? b.ld() : 1, c.data(), c.ld(),
             lower);
    return;
  }
  const index_t mr = lv.mr;
  const index_t nr = lv.nr;
  const PackBuffer& buffer = PackBuffer::local();
  alignas(64) T tile[kMaxTileRows * kMaxTileCols];

  for (index_t jc = 0; jc < n; jc += Block::nc) {
    const index_t nc = std::min(Block::nc, n - jc);
    for (index_t pc = 0; pc < k; pc += Block::kc) {
      const index_t kc = std::min(Block::kc, k - pc);
      pack_b(trans_b, b, pc, jc, kc, nc, nr, buffer.b<T>());
      for (index_t ic = lower ? jc : 0; ic < m; ic += Block::mc) {
        const index_t mc = std::min(Block::mc, m - ic);
        pack_a(trans_a, alpha, a, ic, pc, mc, kc, mr, buffer.a<T>());
        for (index_t jr = 0; jr < nc; jr += nr) {
          const index_t j0 = jc + jr;
          const index_t cols = std::min(nr, nc - jr);
          const T* bp = buffer.b<T>() + jr * kc;
          for (index_t ir = 0; ir < mc; ir += mr) {
            const index_t i0 = ic + ir;
            const index_t rows = std::min(mr, mc - ir);
            if (lower && i0 + rows <= j0) continue;  // strictly upper
            const T* ap = buffer.a<T>() + ir * kc;
            const bool straddles = lower && i0 < j0 + cols - 1;
            if (rows == mr && cols == nr && !straddles) {
              lv.micro(kc, ap, bp, &c(i0, j0), c.ld(), /*overwrite=*/false);
              continue;
            }
            // Edge or diagonal tile: add the product to the elements that
            // are C's (and, for `lower`, on or below the diagonal) only.
            lv.micro(kc, ap, bp, tile, mr, /*overwrite=*/true);
            for (index_t j = 0; j < cols; ++j) {
              const index_t first =
                  lower ? std::clamp<index_t>(j0 + j - i0, 0, rows) : 0;
              T* dst = &c(i0, j0 + j);
              const T* src = tile + j * mr;
              for (index_t i = first; i < rows; ++i) dst[i] += src[i];
            }
          }
        }
      }
    }
  }
}

template <typename T>
void scale_matrix(T beta, MatrixView<T> c) {
  if (beta == T{1}) return;
  for (index_t j = 0; j < c.cols(); ++j) {
    T* __restrict__ col = &c(0, j);
    if (beta == T{}) {
      std::fill(col, col + c.rows(), T{});
    } else {
      for (index_t i = 0; i < c.rows(); ++i) col[i] *= beta;
    }
  }
}

/// X * L^T = B in place, blocked: each diagonal block of kTrsmBlock columns
/// is solved by the leaf, then the micro-kernel subtracts its contribution
/// from every column to its right.
template <typename T>
void trsm_right_lower_transpose(const Leaves<T>& lv, Diag diag,
                                MatrixView<const T> l, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m == 0) return;
  T inv[kTrsmBlock];
  for (index_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
    const index_t jb = std::min(kTrsmBlock, n - j0);
    for (index_t j = 0; j < jb; ++j) {
      inv[j] = (diag == Diag::NonUnit) ? T{1} / l(j0 + j, j0 + j) : T{1};
    }
    lv.trsm_rlt(m, jb, &l(j0, j0), l.ld(), inv, &b(0, j0), b.ld());
    const index_t rest = n - j0 - jb;
    if (rest == 0) continue;
    update<T>(lv, Trans::NoTrans, Trans::Transpose, T{-1},
              b.block(0, j0, m, jb), l.block(j0 + jb, j0, rest, jb),
              b.block(0, j0 + jb, m, rest), /*lower=*/false);
  }
}

}  // namespace

template <typename T>
void gemm(Isa isa, Trans trans_a, Trans trans_b, T alpha,
          MatrixView<const T> a, MatrixView<const T> b, T beta,
          MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (trans_a == Trans::NoTrans) ? a.cols() : a.rows();
  const index_t a_m = (trans_a == Trans::NoTrans) ? a.rows() : a.cols();
  const index_t b_k = (trans_b == Trans::NoTrans) ? b.rows() : b.cols();
  const index_t b_n = (trans_b == Trans::NoTrans) ? b.cols() : b.rows();
  MFGPU_CHECK(a_m == m && b_k == k && b_n == n, "gemm: shape mismatch");

  scale_matrix(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;
  update(leaves<T>(isa), trans_a, trans_b, alpha, a, b, c, /*lower=*/false);
}

template <typename T>
void syrk_lower(Isa isa, T alpha, MatrixView<const T> a, T beta,
                MatrixView<T> c) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  MFGPU_CHECK(c.cols() == n && a.rows() == n, "syrk_lower: shape mismatch");

  // Scale the lower triangle only; the upper triangle is never referenced.
  if (beta != T{1}) {
    for (index_t j = 0; j < n; ++j) {
      T* __restrict__ col = &c(0, j);
      for (index_t i = j; i < n; ++i) {
        col[i] = (beta == T{}) ? T{} : beta * col[i];
      }
    }
  }
  if (n == 0 || k == 0 || alpha == T{}) return;
  update(leaves<T>(isa), Trans::NoTrans, Trans::Transpose, alpha, a, a, c,
         /*lower=*/true);
}

template <typename T>
void trsm(Isa isa, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          MatrixView<const T> a, MatrixView<T> b) {
  MFGPU_CHECK(a.rows() == a.cols(), "trsm: A must be square");
  MFGPU_CHECK(uplo == Uplo::Lower, "trsm: only lower-triangular A supported");
  const index_t n = a.rows();
  scale_matrix(alpha, b);

  if (side == Side::Right && trans == Trans::Transpose) {
    // Solve X * L^T = B  =>  x_j = (b_j - sum_{p<j} x_p l_jp) / l_jj.
    MFGPU_CHECK(b.cols() == n, "trsm right: B column count must match A");
    trsm_right_lower_transpose(leaves<T>(isa), diag, a, b);
    return;
  }

  if (side == Side::Left && trans == Trans::NoTrans) {
    // Solve L * X = B (forward substitution down the columns of B).
    MFGPU_CHECK(b.rows() == n, "trsm left: B row count must match A");
    for (index_t j = 0; j < b.cols(); ++j) {
      T* __restrict__ x = &b(0, j);
      for (index_t p = 0; p < n; ++p) {
        if (diag == Diag::NonUnit) x[p] /= a(p, p);
        const T xp = x[p];
        const T* __restrict__ lcol = &a(0, p);
        for (index_t i = p + 1; i < n; ++i) x[i] -= lcol[i] * xp;
      }
    }
    return;
  }

  if (side == Side::Left && trans == Trans::Transpose) {
    // Solve L^T * X = B (backward substitution).
    MFGPU_CHECK(b.rows() == n, "trsm left: B row count must match A");
    for (index_t j = 0; j < b.cols(); ++j) {
      T* __restrict__ x = &b(0, j);
      for (index_t p = n - 1; p >= 0; --p) {
        const T* __restrict__ lcol = &a(0, p);
        T sum = x[p];
        for (index_t i = p + 1; i < n; ++i) sum -= lcol[i] * x[i];
        x[p] = (diag == Diag::NonUnit) ? sum / a(p, p) : sum;
      }
    }
    return;
  }

  throw InvalidArgumentError("trsm: unsupported side/trans combination");
}

#define MFGPU_DENSE_INSTANTIATE(T)                                            \
  template void gemm<T>(Isa, Trans, Trans, T, MatrixView<const T>,            \
                        MatrixView<const T>, T, MatrixView<T>);               \
  template void syrk_lower<T>(Isa, T, MatrixView<const T>, T, MatrixView<T>); \
  template void trsm<T>(Isa, Side, Uplo, Trans, Diag, T, MatrixView<const T>, \
                        MatrixView<T>);
MFGPU_DENSE_INSTANTIATE(float)
MFGPU_DENSE_INSTANTIATE(double)
#undef MFGPU_DENSE_INSTANTIATE

}  // namespace dense

template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, MatrixView<const T> a,
          MatrixView<const T> b, T beta, MatrixView<T> c) {
  dense::gemm(dense::selected_isa(), trans_a, trans_b, alpha, a, b, beta, c);
}

template <typename T>
void syrk_lower(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
  dense::syrk_lower(dense::selected_isa(), alpha, a, beta, c);
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          MatrixView<const T> a, MatrixView<T> b) {
  dense::trsm(dense::selected_isa(), side, uplo, trans, diag, alpha, a, b);
}

index_t potrf_ops(index_t k) { return k * k * k / 3; }
index_t trsm_ops(index_t m, index_t k) { return m * k * k; }
index_t syrk_ops(index_t m, index_t k) { return m * m * k; }
index_t gemm_ops(index_t m, index_t n, index_t k) { return 2 * m * n * k; }

// Explicit instantiations for the two precisions the system uses.
template void gemm<float>(Trans, Trans, float, MatrixView<const float>,
                          MatrixView<const float>, float, MatrixView<float>);
template void gemm<double>(Trans, Trans, double, MatrixView<const double>,
                           MatrixView<const double>, double,
                           MatrixView<double>);
template void syrk_lower<float>(float, MatrixView<const float>, float,
                                MatrixView<float>);
template void syrk_lower<double>(double, MatrixView<const double>, double,
                                 MatrixView<double>);
template void trsm<float>(Side, Uplo, Trans, Diag, float,
                          MatrixView<const float>, MatrixView<float>);
template void trsm<double>(Side, Uplo, Trans, Diag, double,
                           MatrixView<const double>, MatrixView<double>);

}  // namespace mfgpu
