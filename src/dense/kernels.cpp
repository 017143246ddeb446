// The instruction-set-specific leaves of the dense kernels and the run-time
// choice among them (see kernels.hpp).
//
// Each leaf body is an always-inline template written with GCC/Clang vector
// extensions. A thin wrapper per instruction set carries the target
// attribute, so the inlined body is compiled for that set's vector width and
// FMA; everything else in src/dense is built for the baseline. Vectors are
// moved in and out of memory only through memcpy, never by casting an
// element pointer, so no access assumes an alignment the operands may not
// have.
#include "dense/kernels.hpp"

#include <cmath>
#include <cstring>
#include <type_traits>

namespace mfgpu::dense {
namespace {

typedef float f32x4 __attribute__((vector_size(16)));
typedef double f64x2 __attribute__((vector_size(16)));
template <typename T>
using V128 = std::conditional_t<std::is_same_v<T, float>, f32x4, f64x2>;

/// Rows [i, i + U * L + S) of NC columns of the small product: U vectors V
/// of L lanes (which need A stored by columns, ras == 1), then S single
/// rows, all summed in one pass over p so that their sums are in flight
/// together.
template <typename T, typename V, int U, int S, int NC>
[[gnu::always_inline]] inline void small_tile(index_t i, index_t k, T alpha,
                                              const T* a, index_t ras,
                                              index_t cas, const T* b,
                                              index_t rbs, index_t cbs, T* c,
                                              index_t ldc) {
  constexpr index_t kLanes = sizeof(V) / sizeof(T);
  constexpr index_t kSingle = U * kLanes;  // first single row, from i
  V vsum[NC][U > 0 ? U : 1] = {};
  T ssum[NC][S > 0 ? S : 1] = {};
  for (index_t p = 0; p < k; ++p) {
    V x[U > 0 ? U : 1];
    T y[S > 0 ? S : 1];
#pragma GCC unroll 4
    for (int u = 0; u < U; ++u) {
      std::memcpy(&x[u], a + (i + u * kLanes) * ras + p * cas, sizeof(V));
      x[u] = alpha * x[u];
    }
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) {
      y[s] = alpha * a[(i + kSingle + s) * ras + p * cas];
    }
#pragma GCC unroll 4
    for (int j = 0; j < NC; ++j) {
      const T bj = b[p * rbs + j * cbs];
#pragma GCC unroll 4
      for (int u = 0; u < U; ++u) vsum[j][u] += x[u] * bj;
#pragma GCC unroll 4
      for (int s = 0; s < S; ++s) ssum[j][s] += y[s] * bj;
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    T* cj = c + j * ldc + i;
#pragma GCC unroll 4
    for (int u = 0; u < U; ++u) {
      V cv;
      std::memcpy(&cv, cj + u * kLanes, sizeof(V));
      cv += vsum[j][u];
      std::memcpy(cj + u * kLanes, &cv, sizeof(V));
    }
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) cj[kSingle + s] += ssum[j][s];
  }
}

/// The last `rows` < kEnd rows of NC columns from row i, as one tile:
/// 16-byte vectors then single rows when A is stored by columns (kVec),
/// single rows otherwise.
template <typename T, bool kVec, int NC, int kEnd, int R = 1>
[[gnu::always_inline]] inline void small_last(index_t rows, index_t i,
                                              index_t k, T alpha, const T* a,
                                              index_t ras, index_t cas,
                                              const T* b, index_t rbs,
                                              index_t cbs, T* c, index_t ldc) {
  if constexpr (R < kEnd) {
    constexpr int kLanes128 = sizeof(V128<T>) / sizeof(T);
    if (rows != R) {
      small_last<T, kVec, NC, kEnd, R + 1>(rows, i, k, alpha, a, ras, cas, b,
                                           rbs, cbs, c, ldc);
    } else if constexpr (kVec) {
      small_tile<T, V128<T>, R / kLanes128, R % kLanes128, NC>(
          i, k, alpha, a, ras, cas, b, rbs, cbs, c, ldc);
    } else {
      small_tile<T, T, 0, R, NC>(i, k, alpha, a, ras, cas, b, rbs, cbs, c,
                                 ldc);
    }
  }
}

/// Rows [i, m) of NC columns of the small product. With A stored by
/// columns: tiles of kUnits vectors, then the vectors left, then the rows
/// left in one tile; otherwise tiles of kUnits single rows, then the rest.
template <typename T, typename V, int NC>
[[gnu::always_inline]] inline void small_cols(index_t i, index_t m, index_t k,
                                              T alpha, const T* a, index_t ras,
                                              index_t cas, const T* b,
                                              index_t rbs, index_t cbs, T* c,
                                              index_t ldc) {
  constexpr int kUnits = NC == 1 ? 4 : 2;
  constexpr index_t kLanes = sizeof(V) / sizeof(T);
  if (ras == 1) {
    for (; i + kUnits * kLanes <= m; i += kUnits * kLanes) {
      small_tile<T, V, kUnits, 0, NC>(i, k, alpha, a, ras, cas, b, rbs, cbs, c,
                                      ldc);
    }
    for (; i + kLanes <= m; i += kLanes) {
      small_tile<T, V, 1, 0, NC>(i, k, alpha, a, ras, cas, b, rbs, cbs, c,
                                 ldc);
    }
    small_last<T, true, NC, kLanes>(m - i, i, k, alpha, a, ras, cas, b, rbs,
                                    cbs, c, ldc);
    return;
  }
  for (; i + kUnits <= m; i += kUnits) {
    small_tile<T, T, 0, kUnits, NC>(i, k, alpha, a, ras, cas, b, rbs, cbs, c,
                                    ldc);
  }
  small_last<T, false, NC, kUnits>(m - i, i, k, alpha, a, ras, cas, b, rbs,
                                   cbs, c, ldc);
}

/// C(m x n) += alpha * op(A) * op(B) (lower triangle only with `lower`)
/// straight from the operands, for shapes too small to repay packing.
/// op(A)(i, p) = a[i * ras + p * cas] and op(B)(p, j) = b[p * rbs + j * cbs].
/// Each element takes the packed path's operations: (alpha * a) * b summed
/// from zero in ascending p, then added to C. Tiles of rows and columns are
/// computed together so that independent sums overlap; the tiling never
/// changes an element's operations.
template <typename T, typename V>
[[gnu::always_inline]] inline void small_body(index_t m, index_t n, index_t k,
                                              T alpha, const T* a, index_t ras,
                                              index_t cas, const T* b,
                                              index_t rbs, index_t cbs, T* c,
                                              index_t ldc, bool lower) {
  constexpr index_t kCols = 4;
  index_t j = 0;
  if (!lower) {
    for (; j + kCols <= n; j += kCols) {
      small_cols<T, V, kCols>(0, m, k, alpha, a, ras, cas, b + j * cbs, rbs,
                              cbs, c + j * ldc, ldc);
    }
  }
  for (; j < n; ++j) {
    small_cols<T, V, 1>(lower ? j : 0, m, k, alpha, a, ras, cas, b + j * cbs,
                        rbs, cbs, c + j * ldc, ldc);
  }
}

/// Micro-tile: MV vectors of rows by NR columns, summed in registers from
/// zero over the kc packed columns, then added to C (or, with `overwrite`,
/// stored to it).
template <typename T, typename V, int MV, int NR>
[[gnu::always_inline]] inline void micro_body(index_t kc, const T* a,
                                              const T* b, T* c, index_t ldc,
                                              bool overwrite) {
  constexpr int kLanes = sizeof(V) / sizeof(T);
  V acc[NR][MV] = {};
  for (index_t p = 0; p < kc; ++p) {
    V av[MV];
#pragma GCC unroll 4
    for (int v = 0; v < MV; ++v) {
      std::memcpy(&av[v], a + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      const T bj = b[j];
#pragma GCC unroll 4
      for (int v = 0; v < MV; ++v) acc[j][v] += av[v] * bj;
    }
    a += MV * kLanes;
    b += NR;
  }
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 4
    for (int v = 0; v < MV; ++v) {
      T* cv = c + j * ldc + v * kLanes;
      if (!overwrite) {
        V old;
        std::memcpy(&old, cv, sizeof(V));
        acc[j][v] = old + acc[j][v];
      }
      std::memcpy(cv, &acc[j][v], sizeof(V));
    }
  }
}

/// X := B * L^{-T} on one strip of SV vectors of rows, column by column:
/// x_j = (b_j - sum_{p<j} l_jp x_p) * inv_j.
template <typename T, typename V, int SV>
[[gnu::always_inline]] inline void trsm_strip(index_t nb, const T* l,
                                              index_t ldl, const T* inv, T* b,
                                              index_t ldb) {
  constexpr int kLanes = sizeof(V) / sizeof(T);
  for (index_t j = 0; j < nb; ++j) {
    V acc[SV];
#pragma GCC unroll 8
    for (int v = 0; v < SV; ++v) {
      std::memcpy(&acc[v], b + j * ldb + v * kLanes, sizeof(V));
    }
    for (index_t p = 0; p < j; ++p) {
      const T ljp = l[j + p * ldl];
      const T* xp = b + p * ldb;
#pragma GCC unroll 8
      for (int v = 0; v < SV; ++v) {
        V x;
        std::memcpy(&x, xp + v * kLanes, sizeof(V));
        acc[v] -= ljp * x;
      }
    }
#pragma GCC unroll 8
    for (int v = 0; v < SV; ++v) {
      acc[v] *= inv[j];
      std::memcpy(b + j * ldb + v * kLanes, &acc[v], sizeof(V));
    }
  }
}

/// Rows run in strips of SV vectors, then of one vector, then of 16 bytes,
/// then one by one, each row with the same operations.
template <typename T, typename V, int SV>
[[gnu::always_inline]] inline void trsm_rlt_body(index_t m, index_t nb,
                                                 const T* l, index_t ldl,
                                                 const T* inv, T* b,
                                                 index_t ldb) {
  constexpr index_t kLanes = sizeof(V) / sizeof(T);
  constexpr index_t kLanes128 = sizeof(V128<T>) / sizeof(T);
  index_t i = 0;
  for (; i + SV * kLanes <= m; i += SV * kLanes) {
    trsm_strip<T, V, SV>(nb, l, ldl, inv, b + i, ldb);
  }
  for (; i + kLanes <= m; i += kLanes) {
    trsm_strip<T, V, 1>(nb, l, ldl, inv, b + i, ldb);
  }
  for (; i + kLanes128 <= m; i += kLanes128) {
    trsm_strip<T, V128<T>, 1>(nb, l, ldl, inv, b + i, ldb);
  }
  for (; i < m; ++i) {
    T* row = b + i;
    for (index_t j = 0; j < nb; ++j) {
      T acc = row[j * ldb];
      for (index_t p = 0; p < j; ++p) acc -= l[j + p * ldl] * row[p * ldb];
      row[j * ldb] = acc * inv[j];
    }
  }
}

/// acc -= l * x over U vectors: one term of a left-solve row.
template <typename T, typename V, int U>
[[gnu::always_inline]] inline void trsm_left_term(V* acc, T l, const V* x) {
#pragma GCC unroll 4
  for (int u = 0; u < U; ++u) acc[u] -= l * x[u];
}

/// Rows [i0, i0 + R) of the left solve on a block of columns held row by
/// row, U vectors V per row at x + i * xs: L X = B gives x_i = (b_i -
/// sum_{p<i} l_ip x_p) * inv_i with its terms in ascending p, L^T X = B
/// gives x_i = (b_i - sum_{p>i} l_pi x_p) * inv_i with its terms in
/// descending p. The rows the group needs are solved already; the group's
/// own triangle is solved last, in the same term order.
template <typename T, typename V, int U, int R>
[[gnu::always_inline]] inline void trsm_left_rows(bool transpose, index_t n,
                                                  index_t i0, const T* l,
                                                  index_t ldl, const T* inv,
                                                  T* x, index_t xs) {
  constexpr int kLanes = sizeof(V) / sizeof(T);
  V acc[R][U];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int u = 0; u < U; ++u) {
      std::memcpy(&acc[r][u], x + (i0 + r) * xs + u * kLanes, sizeof(V));
    }
  }
  if (!transpose) {
    for (index_t p = 0; p < i0; ++p) {
      V xp[U];
#pragma GCC unroll 4
      for (int u = 0; u < U; ++u) {
        std::memcpy(&xp[u], x + p * xs + u * kLanes, sizeof(V));
      }
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        trsm_left_term<T, V, U>(acc[r], l[i0 + r + p * ldl], xp);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int q = 0; q < r; ++q) {
        trsm_left_term<T, V, U>(acc[r], l[i0 + r + (i0 + q) * ldl], acc[q]);
      }
#pragma GCC unroll 4
      for (int u = 0; u < U; ++u) acc[r][u] *= inv[i0 + r];
    }
  } else {
    for (index_t p = n - 1; p >= i0 + R; --p) {
      V xp[U];
#pragma GCC unroll 4
      for (int u = 0; u < U; ++u) {
        std::memcpy(&xp[u], x + p * xs + u * kLanes, sizeof(V));
      }
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        trsm_left_term<T, V, U>(acc[r], l[p + (i0 + r) * ldl], xp);
      }
    }
#pragma GCC unroll 4
    for (int r = R - 1; r >= 0; --r) {
#pragma GCC unroll 4
      for (int q = R - 1; q > r; --q) {
        trsm_left_term<T, V, U>(acc[r], l[i0 + q + (i0 + r) * ldl], acc[q]);
      }
#pragma GCC unroll 4
      for (int u = 0; u < U; ++u) acc[r][u] *= inv[i0 + r];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int u = 0; u < U; ++u) {
      std::memcpy(x + (i0 + r) * xs + u * kLanes, &acc[r][u], sizeof(V));
    }
  }
}

/// The whole n x n left solve on one block of columns held as in
/// trsm_left_rows: groups of four rows in solve order, then the rows left
/// one by one.
template <typename T, typename V, int U>
[[gnu::always_inline]] inline void trsm_left_block(bool transpose, index_t n,
                                                   const T* l, index_t ldl,
                                                   const T* inv, T* x,
                                                   index_t xs) {
  constexpr int kRows = 4;
  if (!transpose) {
    index_t i = 0;
    for (; i + kRows <= n; i += kRows) {
      trsm_left_rows<T, V, U, kRows>(false, n, i, l, ldl, inv, x, xs);
    }
    for (; i < n; ++i) {
      trsm_left_rows<T, V, U, 1>(false, n, i, l, ldl, inv, x, xs);
    }
    return;
  }
  index_t i = n;
  for (; i >= kRows; i -= kRows) {
    trsm_left_rows<T, V, U, kRows>(true, n, i - kRows, l, ldl, inv, x, xs);
  }
  for (; i > 0; --i) {
    trsm_left_rows<T, V, U, 1>(true, n, i - 1, l, ldl, inv, x, xs);
  }
}

/// One column of L X = B in place, by columns of L: x_p *= inv_p, then
/// x_i -= l_ip x_p for every i below p, down the rows in vectors of V, then
/// of 16 bytes, then one by one. Each x_i takes the operations of
/// trsm_left_rows: its terms in ascending p, then the multiply.
template <typename T, typename V>
[[gnu::always_inline]] inline void trsm_left_column(index_t n, const T* l,
                                                    index_t ldl, const T* inv,
                                                    T* x) {
  constexpr index_t kLanes = sizeof(V) / sizeof(T);
  constexpr index_t kLanes128 = sizeof(V128<T>) / sizeof(T);
  for (index_t p = 0; p < n; ++p) {
    const T xp = x[p] * inv[p];
    x[p] = xp;
    const T* const lp = l + p * ldl;
    index_t i = p + 1;
    for (; i + kLanes <= n; i += kLanes) {
      V xv, lv;
      std::memcpy(&xv, x + i, sizeof(V));
      std::memcpy(&lv, lp + i, sizeof(V));
      xv -= lv * xp;
      std::memcpy(x + i, &xv, sizeof(V));
    }
    for (; i + kLanes128 <= n; i += kLanes128) {
      V128<T> xv, lv;
      std::memcpy(&xv, x + i, sizeof(xv));
      std::memcpy(&lv, lp + i, sizeof(lv));
      xv -= lv * xp;
      std::memcpy(x + i, &xv, sizeof(xv));
    }
    for (; i < n; ++i) x[i] -= lp[i] * xp;
  }
}

/// Columns [c, ...) of B in blocks of U vectors V: each block is copied
/// row by row into scratch, solved there with one lane per column, and
/// copied back. Returns the first column left over.
template <typename T, typename V, int U>
[[gnu::always_inline]] inline index_t trsm_left_columns(
    bool transpose, index_t n, index_t cols, index_t c, const T* l,
    index_t ldl, const T* inv, T* b, index_t ldb) {
  constexpr index_t kWidth = U * (sizeof(V) / sizeof(T));
  alignas(64) T rows[kTrsmBlock * kWidth];
  for (; c + kWidth <= cols; c += kWidth) {
    for (index_t j = 0; j < kWidth; ++j) {
      const T* col = b + (c + j) * ldb;
      for (index_t i = 0; i < n; ++i) rows[i * kWidth + j] = col[i];
    }
    trsm_left_block<T, V, U>(transpose, n, l, ldl, inv, rows, kWidth);
    for (index_t j = 0; j < kWidth; ++j) {
      T* col = b + (c + j) * ldb;
      for (index_t i = 0; i < n; ++i) col[i] = rows[i * kWidth + j];
    }
  }
  return c;
}

/// Orders from which a single column of L X = B is solved by columns of L:
/// below it the rows' short vectors cost more than the sums they overlap.
inline constexpr index_t kColumnSolveRows = 32;

/// B(n x cols) := L^{-1} B or L^{-T} B, n <= kTrsmBlock: columns in blocks
/// of two vectors, then one vector, then 16 bytes, each lane one column;
/// the columns left are solved in place one at a time (L X = B of order
/// kColumnSolveRows or more by columns of L, the rest by rows). Every lane
/// and every single column takes the same operations, those of a
/// one-column solve.
template <typename T, typename V>
[[gnu::always_inline]] inline void trsm_left_body(bool transpose, index_t n,
                                                  index_t cols, const T* l,
                                                  index_t ldl, const T* inv,
                                                  T* b, index_t ldb) {
  index_t c = trsm_left_columns<T, V, 2>(transpose, n, cols, 0, l, ldl, inv, b,
                                         ldb);
  c = trsm_left_columns<T, V, 1>(transpose, n, cols, c, l, ldl, inv, b, ldb);
  c = trsm_left_columns<T, V128<T>, 1>(transpose, n, cols, c, l, ldl, inv, b,
                                       ldb);
  for (; c < cols; ++c) {
    if (!transpose && n >= kColumnSolveRows) {
      trsm_left_column<T, V>(n, l, ldl, inv, b + c * ldb);
    } else {
      trsm_left_block<T, T, 1>(transpose, n, l, ldl, inv, b + c * ldb, 1);
    }
  }
}

/// Rows [i, i + L * q) of column j of the Cholesky factor, L = lanes of V:
/// a(r, j) = (a(r, j) - sum_{p<j} a(r, p) a(j, p)) * inv, accumulated in
/// registers over unit-stride vectors of rows; returns the first row left
/// over.
template <typename T, typename V>
[[gnu::always_inline]] inline index_t potrf_rows(index_t i, index_t n,
                                                 index_t j, T* a, index_t lda,
                                                 T inv) {
  constexpr index_t kLanes = sizeof(V) / sizeof(T);
  T* cj = a + j * lda;
  const T* lj = a + j;  // row j: lj[p * lda] = a(j, p)
  for (; i + kLanes <= n; i += kLanes) {
    V acc;
    std::memcpy(&acc, cj + i, sizeof(V));
    for (index_t p = 0; p < j; ++p) {
      V x;
      std::memcpy(&x, a + p * lda + i, sizeof(V));
      acc -= lj[p * lda] * x;
    }
    acc *= inv;
    std::memcpy(cj + i, &acc, sizeof(V));
  }
  return i;
}

/// Left-looking Cholesky, one column at a time: the pivot from a(j, j) -
/// sum_{p<j} a(j, p)^2, then the rows below it in vectors of V, then of 16
/// bytes, then one by one, each row with the same operations.
template <typename T, typename V>
[[gnu::always_inline]] inline index_t potrf_body(index_t n, T* a,
                                                 index_t lda) {
  for (index_t j = 0; j < n; ++j) {
    T* cj = a + j * lda;
    const T* lj = a + j;
    T diag = cj[j];
    for (index_t p = 0; p < j; ++p) diag -= lj[p * lda] * lj[p * lda];
    if (!(diag > T{})) {
      cj[j] = diag;
      return j;
    }
    const T pivot = std::sqrt(diag);
    cj[j] = pivot;
    const T inv = T{1} / pivot;
    index_t i = potrf_rows<T, V>(j + 1, n, j, a, lda, inv);
    i = potrf_rows<T, V128<T>>(i, n, j, a, lda, inv);
    for (; i < n; ++i) {
      T acc = cj[i];
      for (index_t p = 0; p < j; ++p) acc -= lj[p * lda] * a[i + p * lda];
      cj[i] = acc * inv;
    }
  }
  return -1;
}

// One set of wrappers per instruction set. Rows per micro-tile are two
// vectors; columns are as many as the register file holds beside them
// (AVX-512: 24 of 32 registers accumulate, AVX2/SSE2: 12 of 16). Every set
// that fuses a multiply-add at one vector width must fuse it at all of them,
// the 16-byte steps and scalar tails included, or an element's bits would
// depend on the step that computed it: AVX-512F alone fuses 512-bit and
// scalar operations but not 128-bit ones, so its variant also enables FMA.
#define MFGPU_DENSE_VARIANT(SUFFIX, ATTR, VEC, NR, STRIP)                     \
  template <typename T>                                                       \
  ATTR void small_##SUFFIX(index_t m, index_t n, index_t k, T alpha,       \
                           const T* a, index_t ras, index_t cas, const T* b,  \
                           index_t rbs, index_t cbs, T* c, index_t ldc,       \
                           bool lower) {                                      \
    small_body<T, VEC<T>>(m, n, k, alpha, a, ras, cas, b, rbs, cbs, c, ldc,   \
                          lower);                                             \
  }                                                                           \
  template <typename T>                                                       \
  ATTR void micro_##SUFFIX(index_t kc, const T* a, const T* b, T* c,          \
                           index_t ldc, bool overwrite) {                     \
    micro_body<T, VEC<T>, 2, NR>(kc, a, b, c, ldc, overwrite);                \
  }                                                                           \
  template <typename T>                                                       \
  ATTR void trsm_##SUFFIX(index_t m, index_t nb, const T* l, index_t ldl,     \
                          const T* inv, T* b, index_t ldb) {                  \
    trsm_rlt_body<T, VEC<T>, STRIP>(m, nb, l, ldl, inv, b, ldb);              \
  }                                                                           \
  template <typename T>                                                       \
  ATTR void trsm_left_##SUFFIX(bool transpose, index_t n, index_t cols,       \
                               const T* l, index_t ldl, const T* inv, T* b,   \
                               index_t ldb) {                                 \
    trsm_left_body<T, VEC<T>>(transpose, n, cols, l, ldl, inv, b, ldb);       \
  }                                                                           \
  template <typename T>                                                       \
  ATTR index_t potrf_##SUFFIX(index_t n, T* a, index_t lda) {                 \
    return potrf_body<T, VEC<T>>(n, a, lda);                                  \
  }                                                                           \
  static_assert(2 * sizeof(VEC<float>) / sizeof(float) <= kMaxTileRows &&   \
                NR <= kMaxTileCols);                                          \
  template <typename T>                                                       \
  const Leaves<T> kLeaves_##SUFFIX = {                                        \
      static_cast<index_t>(2 * sizeof(VEC<T>) / sizeof(T)), NR,               \
      micro_##SUFFIX<T>, small_##SUFFIX<T>, trsm_##SUFFIX<T>,                 \
      trsm_left_##SUFFIX<T>, potrf_##SUFFIX<T>};

MFGPU_DENSE_VARIANT(sse2, , V128, 6, 4)

#if defined(__x86_64__) || defined(__i386__)
#define MFGPU_DENSE_X86 1
typedef float f32x8 __attribute__((vector_size(32)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef float f32x16 __attribute__((vector_size(64)));
typedef double f64x8 __attribute__((vector_size(64)));
template <typename T>
using V256 = std::conditional_t<std::is_same_v<T, float>, f32x8, f64x4>;
template <typename T>
using V512 = std::conditional_t<std::is_same_v<T, float>, f32x16, f64x8>;

MFGPU_DENSE_VARIANT(avx2, __attribute__((target("avx2,fma"))), V256, 6, 4)
MFGPU_DENSE_VARIANT(avx512, __attribute__((target("avx512f,fma"))), V512, 12,
                    4)
#endif

#undef MFGPU_DENSE_VARIANT

bool cpu_supports(Isa isa) {
#ifdef MFGPU_DENSE_X86
  __builtin_cpu_init();
  switch (isa) {
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("fma");
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::Sse2:
      return true;
  }
  return false;
#else
  return isa == Isa::Sse2;
#endif
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx512:
      return "avx512";
    case Isa::Avx2:
      return "avx2";
    case Isa::Sse2:
      return "sse2";
  }
  return "?";
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::Avx512, Isa::Avx2, Isa::Sse2}) {
    if (cpu_supports(isa)) out.push_back(isa);
  }
  return out;
}

Isa selected_isa() {
  static const Isa isa = supported_isas().front();
  return isa;
}

template <typename T>
const Leaves<T>& leaves(Isa isa) {
  // Isa values are ordered by width, so every variant up to the selected
  // one runs on this CPU.
  MFGPU_CHECK(isa <= selected_isa(),
              "dense: instruction set not supported by this CPU");
  switch (isa) {
#ifdef MFGPU_DENSE_X86
    case Isa::Avx512:
      return kLeaves_avx512<T>;
    case Isa::Avx2:
      return kLeaves_avx2<T>;
#endif
    default:
      return kLeaves_sse2<T>;
  }
}

template const Leaves<float>& leaves<float>(Isa);
template const Leaves<double>& leaves<double>(Isa);

}  // namespace mfgpu::dense
