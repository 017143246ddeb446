#include "dense/blas.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

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
/// kernel at a time). It is taken on the thread's first packed call and
/// sized by the cache blocking, never by the operands.
class PackBuffer {
 public:
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

  /// The calling thread's buffer. A thread that exits returns its buffer to
  /// a process-wide free list instead of freeing it: a Solver's pool keeps
  /// its threads for the Solver's lifetime, but every Solver starts its own,
  /// and a factor or solve call given no pool runs on a transient one.
  /// Reusing the buffers spares each new thread the allocation and its page
  /// faults and keeps freed buffers from piling up in per-thread allocator
  /// arenas.
  static const PackBuffer& local() {
    thread_local const Lease lease;
    return *lease.buffer;
  }

 private:
  PackBuffer()
      : storage_(std::make_unique_for_overwrite<unsigned char[]>(kBytes +
                                                                 kAlign)) {
    void* base = storage_.get();
    std::size_t space = kBytes + kAlign;
    data_ = std::align(kAlign, kBytes, base, space);
  }

  struct FreeList {
    std::mutex mutex;
    std::vector<std::unique_ptr<PackBuffer>> buffers;
  };

  /// Never destroyed, so that a thread exiting after static destruction can
  /// still return its buffer.
  static FreeList& free_list() {
    static FreeList* const list = new FreeList;
    return *list;
  }

  struct Lease {
    Lease() {
      FreeList& list = free_list();
      const std::lock_guard<std::mutex> lock(list.mutex);
      if (list.buffers.empty()) {
        buffer.reset(new PackBuffer);
      } else {
        buffer = std::move(list.buffers.back());
        list.buffers.pop_back();
      }
    }
    ~Lease() {
      FreeList& list = free_list();
      const std::lock_guard<std::mutex> lock(list.mutex);
      list.buffers.push_back(std::move(buffer));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    std::unique_ptr<PackBuffer> buffer;
  };

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

/// The packed path of update(): C += alpha * op(A) * op(B) through the
/// micro-kernel. Full tiles are updated in place. Tiles at C's edge, and
/// tiles that straddle the diagonal, are computed into a scratch tile and
/// added to the elements to update only, so nothing outside them is read or
/// written.
template <typename T>
[[gnu::noinline]] void update_packed(const Leaves<T>& lv, Trans trans_a,
                                     Trans trans_b, T alpha,
                                     MatrixView<const T> a,
                                     MatrixView<const T> b, MatrixView<T> c,
                                     bool lower) {
  using Block = Blocking<T>;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (trans_a == Trans::NoTrans) ? a.cols() : a.rows();
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

/// C += alpha * op(A) * op(B) over the whole of C or, with `lower`, over its
/// lower triangle only (C square). Tiny and narrow products go to the
/// unpacked leaf, one kc-deep block at a time as the packed path sums them;
/// the rest through the micro-kernel. Inlined so that the many tiny calls
/// of the supernodal solve reach the leaf without a further call.
template <typename T>
[[gnu::always_inline]] inline void update(const Leaves<T>& lv, Trans trans_a,
                                          Trans trans_b, T alpha,
                                          MatrixView<const T> a,
                                          MatrixView<const T> b,
                                          MatrixView<T> c, bool lower) {
  using Block = Blocking<T>;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (trans_a == Trans::NoTrans) ? a.cols() : a.rows();
  if (k <= kSmallDepth || n <= kSmallCols || m * n * k <= kSmallWork) {
    const bool na = trans_a == Trans::NoTrans;
    const bool nb = trans_b == Trans::NoTrans;
    const index_t cas = na ? a.ld() : 1;
    const index_t rbs = nb ? 1 : b.ld();
    for (index_t pc = 0; pc < k; pc += Block::kc) {
      lv.small(m, n, std::min(Block::kc, k - pc), alpha, a.data() + pc * cas,
               na ? 1 : a.ld(), cas, b.data() + pc * rbs, rbs,
               nb ? b.ld() : 1, c.data(), c.ld(), lower);
    }
    return;
  }
  update_packed(lv, trans_a, trans_b, alpha, a, b, c, lower);
}

template <typename T>
void scale_matrix(T beta, const MatrixView<T>& c) {
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

/// L X = B (NoTrans) or L^T X = B (Transpose) in place, blocked like the
/// right trsm: each diagonal block of kTrsmBlock rows is solved by the leaf,
/// and the micro-kernel carries its rows to the rest of X: forward, it
/// subtracts the block's columns of L times the solved rows from the rows
/// below; backward, it subtracts L^T of the rows below from the block's rows
/// before they are solved. The blocks depend on n alone, so every column of
/// X takes the operations of a one-column solve.
template <typename T>
void trsm_left_lower(const Leaves<T>& lv, Trans trans, Diag diag,
                     const MatrixView<const T>& l, const MatrixView<T>& b) {
  const index_t n = b.rows();
  const index_t cols = b.cols();
  if (n == 0 || cols == 0) return;
  const index_t blocks = (n + kTrsmBlock - 1) / kTrsmBlock;
  T inv[kTrsmBlock];
  for (index_t q = 0; q < blocks; ++q) {
    const index_t j0 =
        kTrsmBlock * (trans == Trans::NoTrans ? q : blocks - 1 - q);
    const index_t jb = std::min(kTrsmBlock, n - j0);
    const index_t rest = n - j0 - jb;
    const MatrixView<T> xb = b.block(j0, 0, jb, cols);
    if (trans == Trans::Transpose && rest > 0) {
      update<T>(lv, Trans::Transpose, Trans::NoTrans, T{-1},
                l.block(j0 + jb, j0, rest, jb), b.block(j0 + jb, 0, rest, cols),
                xb, /*lower=*/false);
    }
    for (index_t j = 0; j < jb; ++j) {
      inv[j] = (diag == Diag::NonUnit) ? T{1} / l(j0 + j, j0 + j) : T{1};
    }
    lv.trsm_left(trans == Trans::Transpose, jb, cols, &l(j0, j0), l.ld(), inv,
                 xb.data(), xb.ld());
    if (trans == Trans::NoTrans && rest > 0) {
      update<T>(lv, Trans::NoTrans, Trans::NoTrans, T{-1},
                l.block(j0 + jb, j0, rest, jb), xb,
                b.block(j0 + jb, 0, rest, cols), /*lower=*/false);
    }
  }
}

// The kernels on one variant's leaves, inlined into both the per-variant
// entry points below and the public ones (which run the selected variant),
// so that a tiny product pays for one call, not a chain of them.

template <typename T>
[[gnu::always_inline]] inline void gemm_on(const Leaves<T>& lv, Trans trans_a,
                                           Trans trans_b, T alpha,
                                           const MatrixView<const T>& a,
                                           const MatrixView<const T>& b, T beta,
                                           const MatrixView<T>& c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (trans_a == Trans::NoTrans) ? a.cols() : a.rows();
  const index_t a_m = (trans_a == Trans::NoTrans) ? a.rows() : a.cols();
  const index_t b_k = (trans_b == Trans::NoTrans) ? b.rows() : b.cols();
  const index_t b_n = (trans_b == Trans::NoTrans) ? b.cols() : b.rows();
  MFGPU_CHECK(a_m == m && b_k == k && b_n == n, "gemm: shape mismatch");

  scale_matrix(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;
  update(lv, trans_a, trans_b, alpha, a, b, c, /*lower=*/false);
}

template <typename T>
[[gnu::always_inline]] inline void syrk_lower_on(const Leaves<T>& lv, T alpha,
                                                 const MatrixView<const T>& a,
                                                 T beta,
                                                 const MatrixView<T>& c) {
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
  update(lv, Trans::NoTrans, Trans::Transpose, alpha, a, a, c,
         /*lower=*/true);
}

template <typename T>
[[gnu::always_inline]] inline void trsm_on(const Leaves<T>& lv, Side side,
                                           Uplo uplo, Trans trans, Diag diag,
                                           T alpha,
                                           const MatrixView<const T>& a,
                                           const MatrixView<T>& b) {
  MFGPU_CHECK(a.rows() == a.cols(), "trsm: A must be square");
  MFGPU_CHECK(uplo == Uplo::Lower, "trsm: only lower-triangular A supported");
  const index_t n = a.rows();
  scale_matrix(alpha, b);

  if (side == Side::Right && trans == Trans::Transpose) {
    // Solve X * L^T = B  =>  x_j = (b_j - sum_{p<j} x_p l_jp) / l_jj.
    MFGPU_CHECK(b.cols() == n, "trsm right: B column count must match A");
    trsm_right_lower_transpose(lv, diag, a, b);
    return;
  }

  if (side == Side::Left) {
    // Solve L X = B (forward) or L^T X = B (backward substitution).
    MFGPU_CHECK(b.rows() == n, "trsm left: B row count must match A");
    trsm_left_lower(lv, trans, diag, a, b);
    return;
  }

  throw InvalidArgumentError("trsm: unsupported side/trans combination");
}

/// The selected variant's leaves, looked up once.
template <typename T>
const Leaves<T>& selected_leaves() {
  static const Leaves<T>& lv = leaves<T>(selected_isa());
  return lv;
}

}  // namespace

template <typename T>
void gemm(Isa isa, Trans trans_a, Trans trans_b, T alpha,
          const MatrixView<const T>& a, const MatrixView<const T>& b, T beta,
          const MatrixView<T>& c) {
  gemm_on(leaves<T>(isa), trans_a, trans_b, alpha, a, b, beta, c);
}

template <typename T>
void syrk_lower(Isa isa, T alpha, const MatrixView<const T>& a, T beta,
                const MatrixView<T>& c) {
  syrk_lower_on(leaves<T>(isa), alpha, a, beta, c);
}

template <typename T>
void trsm(Isa isa, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          const MatrixView<const T>& a, const MatrixView<T>& b) {
  trsm_on(leaves<T>(isa), side, uplo, trans, diag, alpha, a, b);
}

#define MFGPU_DENSE_INSTANTIATE(T)                                            \
  template void gemm<T>(Isa, Trans, Trans, T, const MatrixView<const T>&,     \
                        const MatrixView<const T>&, T, const MatrixView<T>&); \
  template void syrk_lower<T>(Isa, T, const MatrixView<const T>&, T,          \
                              const MatrixView<T>&);                          \
  template void trsm<T>(Isa, Side, Uplo, Trans, Diag, T,                      \
                        const MatrixView<const T>&, const MatrixView<T>&);
MFGPU_DENSE_INSTANTIATE(float)
MFGPU_DENSE_INSTANTIATE(double)
#undef MFGPU_DENSE_INSTANTIATE

}  // namespace dense

template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, const MatrixView<const T>& a,
          const MatrixView<const T>& b, T beta, const MatrixView<T>& c) {
  dense::gemm_on(dense::selected_leaves<T>(), trans_a, trans_b, alpha, a, b,
                 beta, c);
}

template <typename T>
void syrk_lower(T alpha, const MatrixView<const T>& a, T beta,
                const MatrixView<T>& c) {
  dense::syrk_lower_on(dense::selected_leaves<T>(), alpha, a, beta, c);
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          const MatrixView<const T>& a, const MatrixView<T>& b) {
  dense::trsm_on(dense::selected_leaves<T>(), side, uplo, trans, diag, alpha,
                 a, b);
}

index_t potrf_ops(index_t k) { return k * k * k / 3; }
index_t trsm_ops(index_t m, index_t k) { return m * k * k; }
index_t syrk_ops(index_t m, index_t k) { return m * m * k; }
index_t gemm_ops(index_t m, index_t n, index_t k) { return 2 * m * n * k; }

// Explicit instantiations for the two precisions the system uses.
#define MFGPU_BLAS_INSTANTIATE(T)                                             \
  template void gemm<T>(Trans, Trans, T, const MatrixView<const T>&,          \
                        const MatrixView<const T>&, T, const MatrixView<T>&); \
  template void syrk_lower<T>(T, const MatrixView<const T>&, T,               \
                              const MatrixView<T>&);                          \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, const MatrixView<const T>&, \
                        const MatrixView<T>&);
MFGPU_BLAS_INSTANTIATE(float)
MFGPU_BLAS_INSTANTIATE(double)
#undef MFGPU_BLAS_INSTANTIATE

}  // namespace mfgpu
