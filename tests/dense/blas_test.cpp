#include "dense/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dense/kernels.hpp"
#include "dense/matrix.hpp"
#include "dense/potrf.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

Matrix<double> random_matrix(index_t rows, index_t cols, Rng& rng) {
  Matrix<double> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

// Naive reference gemm.
Matrix<double> reference_gemm(Trans ta, Trans tb, double alpha,
                              const Matrix<double>& a, const Matrix<double>& b,
                              double beta, Matrix<double> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == Trans::NoTrans) ? a(i, p) : a(p, i);
        const double bv = (tb == Trans::NoTrans) ? b(p, j) : b(j, p);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c(i, j);
    }
  }
  return c;
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const GemmCase gc = GetParam();
  Rng rng(7 + static_cast<std::uint64_t>(gc.m * 131 + gc.n * 17 + gc.k));
  const index_t ar = (gc.ta == Trans::NoTrans) ? gc.m : gc.k;
  const index_t ac = (gc.ta == Trans::NoTrans) ? gc.k : gc.m;
  const index_t br = (gc.tb == Trans::NoTrans) ? gc.k : gc.n;
  const index_t bc = (gc.tb == Trans::NoTrans) ? gc.n : gc.k;
  const auto a = random_matrix(ar, ac, rng);
  const auto b = random_matrix(br, bc, rng);
  auto c = random_matrix(gc.m, gc.n, rng);
  const auto expected = reference_gemm(gc.ta, gc.tb, 1.3, a, b, -0.7, c);

  gemm<double>(gc.ta, gc.tb, 1.3, a.view(), b.view(), -0.7, c.view());
  EXPECT_LT(max_abs_diff<double>(c.view(), expected.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(
        GemmCase{Trans::NoTrans, Trans::NoTrans, 5, 7, 3},
        GemmCase{Trans::NoTrans, Trans::Transpose, 9, 4, 6},
        GemmCase{Trans::Transpose, Trans::NoTrans, 4, 9, 6},
        GemmCase{Trans::Transpose, Trans::Transpose, 8, 8, 8},
        GemmCase{Trans::NoTrans, Trans::NoTrans, 70, 65, 80},
        GemmCase{Trans::NoTrans, Trans::Transpose, 130, 70, 66},
        GemmCase{Trans::Transpose, Trans::NoTrans, 66, 130, 70},
        GemmCase{Trans::Transpose, Trans::Transpose, 129, 64, 65},
        GemmCase{Trans::NoTrans, Trans::NoTrans, 1, 1, 1},
        GemmCase{Trans::NoTrans, Trans::Transpose, 1, 64, 64}));

TEST(GemmEdge, ZeroDimensionsAreNoops) {
  Matrix<double> a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(),
                               b.view(), 0.0, c.view()));
}

TEST(GemmEdge, BetaZeroOverwritesNaNFree) {
  Rng rng(3);
  auto a = random_matrix(4, 3, rng);
  auto b = random_matrix(3, 5, rng);
  Matrix<double> c(4, 5, std::numeric_limits<double>::quiet_NaN());
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(), b.view(), 0.0,
               c.view());
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(GemmEdge, ShapeMismatchThrows) {
  Matrix<double> a(4, 3), b(5, 6), c(4, 6);
  EXPECT_THROW(gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.view(),
                            b.view(), 0.0, c.view()),
               InvalidArgumentError);
}

TEST(SyrkTest, MatchesGemmOnLowerTriangle) {
  Rng rng(11);
  for (index_t n : {1, 2, 5, 17, 64, 130}) {
    for (index_t k : {1, 3, 16, 65}) {
      auto a = random_matrix(n, k, rng);
      auto c = random_matrix(n, n, rng);
      auto full = c;
      gemm<double>(Trans::NoTrans, Trans::Transpose, -1.0, a.view(), a.view(),
                   1.0, full.view());
      syrk_lower<double>(-1.0, a.view(), 1.0, c.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = j; i < n; ++i) {
          EXPECT_NEAR(c(i, j), full(i, j), 1e-11) << n << "x" << k;
        }
      }
    }
  }
}

TEST(SyrkTest, UpperTriangleUntouched) {
  Rng rng(13);
  auto a = random_matrix(6, 4, rng);
  Matrix<double> c(6, 6, 42.0);
  syrk_lower<double>(1.0, a.view(), 1.0, c.view());
  for (index_t j = 1; j < 6; ++j) {
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 42.0);
  }
}

TEST(TrsmTest, RightLowerTransposeSolves) {
  Rng rng(17);
  for (index_t k : {1, 2, 7, 33, 100}) {
    for (index_t m : {1, 5, 50}) {
      auto l = random_matrix(k, k, rng);
      for (index_t j = 0; j < k; ++j) {
        l(j, j) = 3.0 + std::abs(l(j, j));
        for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
      }
      auto x_true = random_matrix(m, k, rng);
      Matrix<double> b(m, k);
      gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, x_true.view(),
                   l.view(), 0.0, b.view());
      trsm<double>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit,
                   1.0, l.view(), b.view());
      EXPECT_LT(max_abs_diff<double>(b.view(), x_true.view()), 1e-10);
    }
  }
}

TEST(TrsmTest, LeftLowerNoTransSolves) {
  Rng rng(19);
  const index_t n = 40, nrhs = 3;
  auto l = random_matrix(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    l(j, j) = 4.0 + std::abs(l(j, j));
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  }
  auto x_true = random_matrix(n, nrhs, rng);
  Matrix<double> b(n, nrhs);
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, l.view(), x_true.view(),
               0.0, b.view());
  trsm<double>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 1.0,
               l.view(), b.view());
  EXPECT_LT(max_abs_diff<double>(b.view(), x_true.view()), 1e-10);
}

TEST(TrsmTest, LeftLowerTransposeSolves) {
  Rng rng(23);
  const index_t n = 40, nrhs = 2;
  auto l = random_matrix(n, n, rng);
  for (index_t j = 0; j < n; ++j) {
    l(j, j) = 4.0 + std::abs(l(j, j));
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  }
  auto x_true = random_matrix(n, nrhs, rng);
  Matrix<double> b(n, nrhs);
  gemm<double>(Trans::Transpose, Trans::NoTrans, 1.0, l.view(), x_true.view(),
               0.0, b.view());
  trsm<double>(Side::Left, Uplo::Lower, Trans::Transpose, Diag::NonUnit, 1.0,
               l.view(), b.view());
  EXPECT_LT(max_abs_diff<double>(b.view(), x_true.view()), 1e-10);
}

TEST(TrsmTest, UpperUnsupportedThrows) {
  Matrix<double> l(3, 3), b(2, 3);
  EXPECT_THROW(trsm<double>(Side::Right, Uplo::Upper, Trans::Transpose,
                            Diag::NonUnit, 1.0, l.view(), b.view()),
               InvalidArgumentError);
}

TEST(OpCountTest, PaperConventions) {
  EXPECT_EQ(potrf_ops(30), 9000);
  EXPECT_EQ(trsm_ops(10, 4), 160);
  EXPECT_EQ(syrk_ops(10, 4), 400);
  EXPECT_EQ(gemm_ops(2, 3, 4), 48);
}


// ---------------------------------------------------------------------------
// Every instruction-set variant the host supports, in both precisions, at
// the shapes where the packed kernels change behaviour: around the
// micro-tile (mr, nr), the small-product cut-off (kSmallDepth), the cache
// blocks (kc, 2 mc + 3, nc + 1) and the trsm diagonal block. Every operand
// is a strided, unaligned sub-block view (ld > rows, offset by one element).

/// An r x c view into a larger random matrix: leading dimension r + 3, first
/// element one past the buffer start, so neither alignment nor ld == rows.
template <typename T>
struct Strided {
  Matrix<T> storage;
  MatrixView<T> view;
  Strided(index_t r, index_t c, Rng& rng)
      : storage(r + 3, c + 1), view(storage.block(1, 1, r, c)) {
    for (index_t j = 0; j < storage.cols(); ++j) {
      for (index_t i = 0; i < storage.rows(); ++i) {
        storage(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
      }
    }
  }
  Strided(const Strided&) = delete;  // `view` points into `storage`
  Strided& operator=(const Strided&) = delete;
  MatrixView<const T> cview() const { return view; }
};

/// Bound on |kernel - reference| for sums of k products of entries in
/// [-1, 1] (reference summed in long double).
template <typename T>
double sum_tolerance(index_t k) {
  return 4.0 * static_cast<double>(k + 2) * std::numeric_limits<T>::epsilon();
}

template <typename T>
long double op_at(Trans t, MatrixView<const T> x, index_t i, index_t j) {
  return (t == Trans::NoTrans) ? x(i, j) : x(j, i);
}

class DenseKernelIsaTest : public ::testing::TestWithParam<dense::Isa> {};

std::string isa_param_name(
    const ::testing::TestParamInfo<dense::Isa>& info) {
  return dense::isa_name(info.param);
}

template <typename T>
void check_gemm_edges(dense::Isa isa) {
  using Block = dense::Blocking<T>;
  const auto& lv = dense::leaves<T>(isa);
  Rng rng(101);
  const std::vector<index_t> ms = {1, lv.mr - 1, lv.mr, lv.mr + 1,
                                   2 * Block::mc + 3};
  const std::vector<index_t> ns = {1, lv.nr - 1, lv.nr, lv.nr + 1};
  const std::vector<index_t> ks = {1, dense::kSmallDepth + 1, Block::kc + 1};
  std::vector<std::array<index_t, 3>> shapes;
  for (index_t m : ms) {
    for (index_t n : ns) {
      for (index_t k : ks) shapes.push_back({m, n, k});
    }
  }
  shapes.push_back({lv.mr + 1, Block::nc + 1, dense::kSmallDepth + 1});
  const T alpha = static_cast<T>(-1.25);
  const T beta = static_cast<T>(0.5);
  for (const auto& [m, n, k] : shapes) {
    for (Trans ta : {Trans::NoTrans, Trans::Transpose}) {
      for (Trans tb : {Trans::NoTrans, Trans::Transpose}) {
        Strided<T> a(ta == Trans::NoTrans ? m : k, ta == Trans::NoTrans ? k : m,
                     rng);
        Strided<T> b(tb == Trans::NoTrans ? k : n, tb == Trans::NoTrans ? n : k,
                     rng);
        Strided<T> c(m, n, rng);
        Matrix<long double> expected(m, n);
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < m; ++i) {
            long double sum = 0;
            for (index_t p = 0; p < k; ++p) {
              sum += op_at<T>(ta, a.cview(), i, p) *
                     op_at<T>(tb, b.cview(), p, j);
            }
            expected(i, j) =
                alpha * sum + beta * static_cast<long double>(c.view(i, j));
          }
        }
        dense::gemm<T>(isa, ta, tb, alpha, a.cview(), b.cview(), beta, c.view);
        double err = 0.0;
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < m; ++i) {
            err = std::max(err, static_cast<double>(std::abs(
                                    c.view(i, j) - expected(i, j))));
          }
        }
        EXPECT_LE(err, 2.0 * sum_tolerance<T>(k))
            << "m=" << m << " n=" << n << " k=" << k << " ta=" << int(ta)
            << " tb=" << int(tb);
      }
    }
  }
}

TEST_P(DenseKernelIsaTest, GemmAllTransposesAtBlockEdges) {
  check_gemm_edges<float>(GetParam());
  check_gemm_edges<double>(GetParam());
}

template <typename T>
void check_syrk_edges(dense::Isa isa) {
  using Block = dense::Blocking<T>;
  const auto& lv = dense::leaves<T>(isa);
  Rng rng(103);
  const T sentinel = static_cast<T>(42);
  for (index_t n : {index_t{1}, lv.mr - 1, lv.mr, lv.mr + 1, lv.nr - 1,
                    lv.nr + 1, 2 * Block::mc + 3}) {
    for (index_t k : {index_t{1}, dense::kSmallDepth + 1, Block::kc + 1}) {
      Strided<T> a(n, k, rng);
      Strided<T> c(n, n, rng);
      for (index_t j = 1; j < n; ++j) {
        for (index_t i = 0; i < j; ++i) c.view(i, j) = sentinel;
      }
      Matrix<long double> expected(n, n);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = j; i < n; ++i) {
          long double sum = 0;
          for (index_t p = 0; p < k; ++p) {
            sum += static_cast<long double>(a.view(i, p)) * a.view(j, p);
          }
          expected(i, j) = c.view(i, j) - sum;
        }
      }
      dense::syrk_lower<T>(isa, T{-1}, a.cview(), T{1}, c.view);
      double err = 0.0;
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < j; ++i) {
          ASSERT_EQ(c.view(i, j), sentinel) << "n=" << n << " k=" << k;
        }
        for (index_t i = j; i < n; ++i) {
          err = std::max(err, static_cast<double>(
                                  std::abs(c.view(i, j) - expected(i, j))));
        }
      }
      EXPECT_LE(err, 2.0 * sum_tolerance<T>(k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST_P(DenseKernelIsaTest, SyrkLowerAtBlockEdgesLeavesUpperUntouched) {
  check_syrk_edges<float>(GetParam());
  check_syrk_edges<double>(GetParam());
}

/// Makes `l` a well-conditioned lower-triangular factor (diagonal in [3, 4]).
template <typename T>
void make_lower_factor(Strided<T>& l) {
  const index_t n = l.view.rows();
  for (index_t j = 0; j < n; ++j) {
    l.view(j, j) =
        static_cast<T>(3.0 + std::abs(static_cast<double>(l.view(j, j))));
    for (index_t i = 0; i < j; ++i) l.view(i, j) = T{};
  }
}

template <typename T>
void check_trsm_edges(dense::Isa isa) {
  const auto& lv = dense::leaves<T>(isa);
  Rng rng(107);
  const index_t tb = dense::kTrsmBlock;
  for (index_t n : {index_t{1}, index_t{7}, tb - 1, tb, tb + 1, 2 * tb + 3}) {
    // m = 16 is the block width of the multi-RHS solves.
    for (index_t m : {index_t{1}, lv.mr - 1, lv.mr + 1, index_t{16},
                      2 * dense::Blocking<T>::mc + 3}) {
      Strided<T> l(n, n, rng);
      make_lower_factor(l);
      // Right: X L^T = B.
      Strided<T> b(m, n, rng);
      Matrix<long double> x_ref(m, n);
      for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
          long double v = b.view(i, j);
          for (index_t p = 0; p < j; ++p) v -= x_ref(i, p) * l.view(j, p);
          x_ref(i, j) = v / l.view(j, j);
        }
      }
      dense::trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose,
                     Diag::NonUnit, T{1}, l.cview(), b.view);
      double err = 0.0;
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          err = std::max(err, static_cast<double>(
                                  std::abs(b.view(i, j) - x_ref(i, j))));
        }
      }
      EXPECT_LE(err, sum_tolerance<T>(n)) << "right m=" << m << " n=" << n;

      // Left, both transposes: L X = B and L^T X = B (B is n x m).
      for (Trans t : {Trans::NoTrans, Trans::Transpose}) {
        Strided<T> bl(n, m, rng);
        Matrix<long double> xl(n, m);
        for (index_t c = 0; c < m; ++c) {
          for (index_t s = 0; s < n; ++s) {
            const index_t r = (t == Trans::NoTrans) ? s : n - 1 - s;
            long double v = bl.view(r, c);
            for (index_t q = 0; q < s; ++q) {
              const index_t p = (t == Trans::NoTrans) ? q : n - 1 - q;
              const T lrp = (t == Trans::NoTrans) ? l.view(r, p) : l.view(p, r);
              v -= lrp * xl(p, c);
            }
            xl(r, c) = v / l.view(r, r);
          }
        }
        dense::trsm<T>(isa, Side::Left, Uplo::Lower, t, Diag::NonUnit, T{1},
                       l.cview(), bl.view);
        double lerr = 0.0;
        for (index_t c = 0; c < m; ++c) {
          for (index_t r = 0; r < n; ++r) {
            lerr = std::max(lerr, static_cast<double>(
                                      std::abs(bl.view(r, c) - xl(r, c))));
          }
        }
        EXPECT_LE(lerr, sum_tolerance<T>(n))
            << "left t=" << int(t) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST_P(DenseKernelIsaTest, TrsmRightAndLeftAtBlockEdges) {
  check_trsm_edges<float>(GetParam());
  check_trsm_edges<double>(GetParam());
}

// A NaN in any operand must reach the output, also where the other operand
// is exactly zero (0 * NaN = NaN); no kernel may skip a zero multiplier.
template <typename T>
void check_nan_propagation(dense::Isa isa) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (index_t n : {index_t{6}, index_t{70}}) {  // small path and packed path
    const index_t k = n;
    const index_t i = n / 2 + 1, p = n / 3;
    {  // gemm: NaN in A(i, p) with row p of B all zero -> row i of C NaN.
      Matrix<T> a(n, k, T{1}), b(k, n, T{1}), c(n, n, T{});
      a(i, p) = nan;
      for (index_t j = 0; j < n; ++j) b(p, j) = T{};
      dense::gemm<T>(isa, Trans::NoTrans, Trans::NoTrans, T{1}, a.view(),
                     b.view(), T{1}, c.view());
      for (index_t j = 0; j < n; ++j) EXPECT_TRUE(std::isnan(c(i, j))) << n;
    }
    {  // gemm: NaN in B(p, j) with column p of A all zero -> column j NaN.
      Matrix<T> a(n, k, T{1}), b(k, n, T{1}), c(n, n, T{});
      b(p, i) = nan;
      for (index_t r = 0; r < n; ++r) a(r, p) = T{};
      dense::gemm<T>(isa, Trans::NoTrans, Trans::NoTrans, T{1}, a.view(),
                     b.view(), T{1}, c.view());
      for (index_t r = 0; r < n; ++r) EXPECT_TRUE(std::isnan(c(r, i))) << n;
    }
    {  // syrk: NaN in A(i, p) with column p otherwise zero -> row i and
       // column i of the lower triangle NaN.
      Matrix<T> a(n, k, T{1}), c(n, n, T{});
      for (index_t r = 0; r < n; ++r) a(r, p) = T{};
      a(i, p) = nan;
      dense::syrk_lower<T>(isa, T{-1}, a.view(), T{1}, c.view());
      for (index_t j = 0; j <= i; ++j) EXPECT_TRUE(std::isnan(c(i, j))) << n;
      for (index_t r = i; r < n; ++r) EXPECT_TRUE(std::isnan(c(r, i))) << n;
    }
    {  // trsm right: NaN in B(i, p) with column p of L zero below the
       // diagonal -> row i NaN from column p on.
      Matrix<T> l(k, k, T{}), b(n, k, T{1});
      for (index_t j = 0; j < k; ++j) {
        l(j, j) = T{2};
        for (index_t r = j + 1; r < k; ++r) l(r, j) = (j == p) ? T{} : T{0.25};
      }
      b(i, p) = nan;
      dense::trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose,
                     Diag::NonUnit, T{1}, l.view(), b.view());
      for (index_t j = p; j < k; ++j) EXPECT_TRUE(std::isnan(b(i, j))) << n;
    }
    {  // trsm right: NaN in L(j, p) -> column j of X NaN.
      Matrix<T> l(k, k, T{}), b(n, k, T{1});
      for (index_t j = 0; j < k; ++j) l(j, j) = T{2};
      l(i, p) = nan;
      dense::trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose,
                     Diag::NonUnit, T{1}, l.view(), b.view());
      for (index_t r = 0; r < n; ++r) EXPECT_TRUE(std::isnan(b(r, i))) << n;
    }
    {  // trsm left: NaN in L(r, p) below a zero solution entry x_p.
      Matrix<T> l(k, k, T{}), b(k, 1, T{1});
      for (index_t j = 0; j < k; ++j) l(j, j) = T{2};
      b(p, 0) = T{};
      l(i, p) = nan;
      dense::trsm<T>(isa, Side::Left, Uplo::Lower, Trans::NoTrans,
                     Diag::NonUnit, T{1}, l.view(), b.view());
      EXPECT_TRUE(std::isnan(b(i, 0))) << n;
    }
    {  // trsm left, transposed (the backward sweep): NaN in L(i, p) above a
       // zero solution entry x_i -> x_p NaN in every column.
      const index_t cols = 16;
      Matrix<T> l(k, k, T{}), b(k, cols, T{1});
      for (index_t j = 0; j < k; ++j) l(j, j) = T{2};
      for (index_t c = 0; c < cols; ++c) b(i, c) = T{};
      l(i, p) = nan;
      dense::trsm<T>(isa, Side::Left, Uplo::Lower, Trans::Transpose,
                     Diag::NonUnit, T{1}, l.view(), b.view());
      for (index_t c = 0; c < cols; ++c) {
        EXPECT_TRUE(std::isnan(b(p, c))) << n << " col " << c;
      }
    }
  }
}

TEST_P(DenseKernelIsaTest, NanInEveryOperandReachesTheOutput) {
  check_nan_propagation<float>(GetParam());
  check_nan_propagation<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Supported, DenseKernelIsaTest,
                         ::testing::ValuesIn(dense::supported_isas()),
                         isa_param_name);

TEST(DenseKernelIsa, SelectedIsTheWidestSupported) {
  const auto isas = dense::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(dense::selected_isa(), isas.front());
  EXPECT_EQ(isas.back(), dense::Isa::Sse2);
}

// ---------------------------------------------------------------------------
// Bits depend on the shape and values only: not on alignment, leading
// dimension or the calling thread.

template <typename T>
bool same_bits(MatrixView<const T> x, MatrixView<const T> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j) {
    if (std::memcmp(&x(0, j), &y(0, j), sizeof(T) * x.rows()) != 0) {
      return false;
    }
  }
  return true;
}

/// One run of every kernel on a fixed problem whose operands sit `offset`
/// elements into their buffers with leading dimension rows + `pad`. Returns
/// copies of the outputs: C (gemm then syrk), L (potrf) and X (trsm).
template <typename T>
std::vector<Matrix<T>> run_kernels(index_t offset, index_t pad) {
  const index_t m = 2 * dense::Blocking<T>::mc + 3;
  const index_t k = dense::kTrsmBlock + 5;
  Rng rng(211);
  Matrix<T> a_src(m, k), b_src(m, k), spd_src(k, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) {
      a_src(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
      b_src(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  gemm<T>(Trans::Transpose, Trans::NoTrans, T{1}, a_src.view(), a_src.view(),
          T{}, spd_src.view());
  for (index_t i = 0; i < k; ++i) spd_src(i, i) += static_cast<T>(m);

  // Storage with the requested offset and leading dimension.
  auto place = [&](const Matrix<T>& src, std::vector<T>& buf) {
    const index_t ld = src.rows() + pad;
    buf.assign(static_cast<std::size_t>(offset + ld * src.cols()), T{});
    MatrixView<T> v(buf.data() + offset, src.rows(), src.cols(), ld);
    copy_into<T>(src.view(), v);
    return v;
  };
  std::vector<T> ab, bb, cb, lb;
  const auto a = place(a_src, ab);
  Matrix<T> c_src(m, m, T{1});
  auto c = place(c_src, cb);
  auto l = place(spd_src, lb);
  auto b = place(b_src, bb);

  gemm<T>(Trans::NoTrans, Trans::Transpose, T{-1}, a, b, T{1}, c);
  syrk_lower<T>(T{-1}, a, T{1}, c);
  potrf<T>(l, 16);
  trsm<T>(Side::Right, Uplo::Lower, Trans::Transpose, Diag::NonUnit, T{1}, l,
          b);
  std::vector<Matrix<T>> out;
  for (auto v : {c, l, b}) {
    Matrix<T> copy(v.rows(), v.cols());
    copy_into<T>(MatrixView<const T>(v), copy.view());
    out.push_back(std::move(copy));
  }
  return out;
}

template <typename T>
void check_layout_and_thread_independence() {
  const auto base = run_kernels<T>(0, 0);
  for (auto [offset, pad] :
       {std::pair<index_t, index_t>{1, 0}, {0, 5}, {3, 7}}) {
    const auto other = run_kernels<T>(offset, pad);
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_TRUE(same_bits<T>(base[r].view(), other[r].view()))
          << "output " << r << " offset " << offset << " pad " << pad;
    }
  }
  std::vector<std::vector<Matrix<T>>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&results, t] {
      const auto shift = static_cast<index_t>(t);
      results[t] = run_kernels<T>(shift, shift);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& res : results) {
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_TRUE(same_bits<T>(base[r].view(), res[r].view()))
          << "output " << r;
    }
  }
}

TEST(DenseKernelDeterminism, BitsIndependentOfAlignmentLdAndThreads) {
  check_layout_and_thread_independence<float>();
  check_layout_and_thread_independence<double>();
}

// Column j of an m x r product is bitwise the 1-wide product of column j,
// whether the r-wide call packs and the 1-wide call takes the unpacked leaf
// or the other way round. The shapes straddle kSmallDepth, kSmallWork and
// kc; the two modes are the solve's: C = A B and C -= op(A) B.
template <typename T>
void check_columns_independent_of_width(dense::Isa isa) {
  using Block = dense::Blocking<T>;
  const auto& lv = dense::leaves<T>(isa);
  Rng rng(223);
  const std::vector<index_t> ms = {1,  2,         3,         5,
                                   13, lv.mr + 1, index_t{100}};
  const std::vector<index_t> ks = {1,          dense::kSmallDepth,
                                   dense::kSmallDepth + 1, 40,
                                   Block::kc,  Block::kc + 1,
                                   2 * Block::kc + 3};
  for (index_t m : ms) {
    for (index_t k : ks) {
      for (Trans ta : {Trans::NoTrans, Trans::Transpose}) {
        for (index_t r : {index_t{1}, index_t{2}, index_t{3}, index_t{16}}) {
          for (const bool accumulate : {false, true}) {
            const T alpha = accumulate ? T{-1} : T{1};
            const T beta = accumulate ? T{1} : T{};
            Strided<T> a(ta == Trans::NoTrans ? m : k,
                         ta == Trans::NoTrans ? k : m, rng);
            Strided<T> b(k, r, rng);
            Strided<T> c(m, r, rng);
            Matrix<T> wide(m, r);
            copy_into<T>(c.cview(), wide.view());
            dense::gemm<T>(isa, ta, Trans::NoTrans, alpha, a.cview(), b.cview(),
                           beta, wide.view());
            for (index_t j = 0; j < r; ++j) {
              Matrix<T> narrow(m, 1);
              copy_into<T>(c.cview().col(j), narrow.view());
              dense::gemm<T>(isa, ta, Trans::NoTrans, alpha, a.cview(),
                             b.cview().col(j), beta, narrow.view());
              ASSERT_TRUE(same_bits<T>(wide.view().col(j), narrow.view()))
                  << dense::isa_name(isa) << " m=" << m << " k=" << k
                  << " r=" << r << " col=" << j << " ta=" << int(ta)
                  << " accumulate=" << accumulate;
            }
          }
        }
      }
    }
  }
}

// The same for the left trsm the supernodal solve runs on its pivot blocks,
// at orders around the trsm's diagonal block.
template <typename T>
void check_left_trsm_columns_independent_of_width(dense::Isa isa) {
  Rng rng(229);
  const index_t tb = dense::kTrsmBlock;
  for (index_t n : {index_t{1}, index_t{3}, index_t{13}, tb, tb + 1,
                    3 * tb + 5}) {
    Strided<T> l(n, n, rng);
    make_lower_factor(l);
    for (Trans t : {Trans::NoTrans, Trans::Transpose}) {
      for (index_t r : {index_t{1}, index_t{2}, index_t{3}, index_t{16}}) {
        Strided<T> b(n, r, rng);
        Matrix<T> wide(n, r);
        copy_into<T>(b.cview(), wide.view());
        dense::trsm<T>(isa, Side::Left, Uplo::Lower, t, Diag::NonUnit, T{1},
                       l.cview(), wide.view());
        for (index_t j = 0; j < r; ++j) {
          Matrix<T> narrow(n, 1);
          copy_into<T>(b.cview().col(j), narrow.view());
          dense::trsm<T>(isa, Side::Left, Uplo::Lower, t, Diag::NonUnit, T{1},
                         l.cview(), narrow.view());
          ASSERT_TRUE(same_bits<T>(wide.view().col(j), narrow.view()))
              << dense::isa_name(isa) << " trsm n=" << n << " r=" << r
              << " col=" << j << " t=" << int(t);
        }
      }
    }
  }
}

TEST(DenseKernelDeterminism, ColumnsIndependentOfWidth) {
  for (dense::Isa isa : dense::supported_isas()) {
    check_columns_independent_of_width<float>(isa);
    check_columns_independent_of_width<double>(isa);
    check_left_trsm_columns_independent_of_width<float>(isa);
    check_left_trsm_columns_independent_of_width<double>(isa);
  }
}

// Rows of the right trsm and of the Cholesky factor are computed in strips
// of vectors, then 16-byte vectors, then one by one; a row's bits must not
// depend on which step computed it. Each row of a tall solve is compared
// with the same row solved alone, and each row of L below a leading block
// with the same row factored right under that block.
template <typename T>
void check_rows_independent_of_position(dense::Isa isa) {
  Rng rng(227);
  for (index_t n : {index_t{5}, index_t{20}, dense::kTrsmBlock + 6}) {
    Strided<T> l(n, n, rng);
    make_lower_factor(l);
    const index_t m = 2 * dense::leaves<T>(isa).mr + 7;
    Strided<T> b(m, n, rng);
    Matrix<T> x(m, n);
    copy_into<T>(b.cview(), x.view());
    dense::trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose,
                   Diag::NonUnit, T{1}, l.cview(), x.view());
    for (index_t i = 0; i < m; ++i) {
      Matrix<T> row(1, n);
      copy_into<T>(b.cview().block(i, 0, 1, n), row.view());
      dense::trsm<T>(isa, Side::Right, Uplo::Lower, Trans::Transpose,
                     Diag::NonUnit, T{1}, l.cview(), row.view());
      ASSERT_TRUE(same_bits<T>(x.view().block(i, 0, 1, n), row.view()))
          << dense::isa_name(isa) << " trsm n=" << n << " row=" << i;
    }
  }
  const index_t n = 41;
  Matrix<T> g(n, n), spd(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) g(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  gemm<T>(Trans::NoTrans, Trans::Transpose, T{1}, g.view(), g.view(), T{},
          spd.view());
  for (index_t i = 0; i < n; ++i) spd(i, i) += static_cast<T>(n);
  Matrix<T> full = spd;
  dense::potrf_unblocked<T>(isa, full.view(), 0);
  for (index_t lead : {index_t{1}, index_t{6}, index_t{17}}) {
    for (index_t i = lead; i < n; ++i) {
      // The leading block with row (and column) i appended.
      Matrix<T> part(lead + 1, lead + 1);
      for (index_t q = 0; q <= lead; ++q) {
        const index_t sq = q < lead ? q : i;
        for (index_t p = 0; p <= lead; ++p) {
          part(p, q) = spd(p < lead ? p : i, sq);
        }
      }
      dense::potrf_unblocked<T>(isa, part.view(), 0);
      for (index_t j = 0; j < lead; ++j) {
        ASSERT_EQ(std::memcmp(&part(lead, j), &full(i, j), sizeof(T)), 0)
            << dense::isa_name(isa) << " potrf lead=" << lead << " row=" << i
            << " col=" << j;
      }
    }
  }
}

TEST(DenseKernelDeterminism, RowsIndependentOfPosition) {
  for (dense::Isa isa : dense::supported_isas()) {
    check_rows_independent_of_position<float>(isa);
    check_rows_independent_of_position<double>(isa);
  }
}

}  // namespace
}  // namespace mfgpu
