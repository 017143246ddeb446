#include "dense/potrf.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dense/kernels.hpp"
#include "support/rng.hpp"

namespace mfgpu {
namespace {

/// Random SPD matrix A = M M^T + n*I.
Matrix<double> random_spd(index_t n, Rng& rng) {
  Matrix<double> m(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix<double> a(n, n, 0.0);
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, m.view(), m.view(), 0.0,
               a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

double reconstruction_error(const Matrix<double>& a, const Matrix<double>& l) {
  const index_t n = a.rows();
  Matrix<double> ll(n, n, 0.0);
  // Lower-triangular L: zero out the strict upper part first.
  Matrix<double> lt = l;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) lt(i, j) = 0.0;
  }
  gemm<double>(Trans::NoTrans, Trans::Transpose, 1.0, lt.view(), lt.view(),
               0.0, ll.view());
  double err = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      err = std::max(err, std::abs(ll(i, j) - a(i, j)));
    }
  }
  return err;
}

class PotrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfSizes, UnblockedReconstructs) {
  Rng rng(29);
  const index_t n = GetParam();
  auto a = random_spd(n, rng);
  auto l = a;
  potrf_unblocked<double>(l.view());
  EXPECT_LT(reconstruction_error(a, l), 1e-9 * static_cast<double>(n));
}

TEST_P(PotrfSizes, BlockedMatchesUnblocked) {
  Rng rng(31);
  const index_t n = GetParam();
  auto a = random_spd(n, rng);
  auto l1 = a;
  auto l2 = a;
  potrf_unblocked<double>(l1.view());
  potrf<double>(l2.view(), 16);
  // Compare lower triangles.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      EXPECT_NEAR(l1(i, j), l2(i, j), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfSizes,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 40, 64, 100));

TEST(PotrfTest, NotPositiveDefiniteThrowsWithColumn) {
  Matrix<double> a(3, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // indefinite
  a(2, 2) = 1.0;
  try {
    potrf_unblocked<double>(a.view(), /*column_offset=*/100);
    FAIL() << "expected NotPositiveDefiniteError";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_EQ(e.column(), 101);
    EXPECT_LE(e.pivot(), 0.0);
  }
}

TEST(PotrfTest, FloatVariantWorks) {
  Rng rng(37);
  auto ad = random_spd(20, rng);
  Matrix<float> a(20, 20);
  copy_into<float>(ad.view(), a.view());
  EXPECT_NO_THROW(potrf<float>(a.view(), 8));
  // Diagonal of the factor must be positive.
  for (index_t i = 0; i < 20; ++i) EXPECT_GT(a(i, i), 0.0f);
}

TEST(PotrfTest, IdentityFactorsToIdentity) {
  Matrix<double> a(5, 5, 0.0);
  for (index_t i = 0; i < 5; ++i) a(i, i) = 1.0;
  potrf<double>(a.view());
  for (index_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(a(i, i), 1.0);
}


// Every instruction-set variant the host supports, in both precisions, at
// sizes around the vector width, the potrf block and the trsm diagonal
// block, on a strided, unaligned view.
class PotrfIsaTest : public ::testing::TestWithParam<dense::Isa> {};

template <typename T>
void check_potrf_sizes(dense::Isa isa) {
  Rng rng(41);
  for (index_t n : {1, 7, 8, 9, 15, 16, 17, 33, 63, 64, 65, 131}) {
    for (index_t block : {index_t{16}, index_t{64}}) {
      const auto a = random_spd(n, rng);
      Matrix<T> storage(n + 3, n + 1);
      auto l = storage.block(1, 1, n, n);
      copy_into<T>(a.view(), l);
      dense::potrf<T>(isa, l, block, 0);
      double err = 0.0;
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = j; i < n; ++i) {
          long double sum = 0;
          for (index_t p = 0; p <= j; ++p) {
            sum += static_cast<long double>(l(i, p)) * l(j, p);
          }
          err = std::max(err, static_cast<double>(std::abs(sum - a(i, j))));
        }
      }
      // Entries of A are O(n); rounding grows with the n-term sums.
      const double tol = 8.0 * static_cast<double>(n) * static_cast<double>(n) *
                         std::numeric_limits<T>::epsilon();
      EXPECT_LE(err, tol) << "n=" << n << " block=" << block;
    }
  }
}

TEST_P(PotrfIsaTest, BlockedReconstructsAtBlockEdges) {
  check_potrf_sizes<float>(GetParam());
  check_potrf_sizes<double>(GetParam());
}

TEST_P(PotrfIsaTest, NotPositiveDefiniteReportsTheColumn) {
  for (index_t bad : {0, 5, 20}) {
    Matrix<float> a(24, 24, 0.0f);
    for (index_t i = 0; i < 24; ++i) a(i, i) = 1.0f;
    a(bad, bad) = -2.0f;
    try {
      dense::potrf<float>(GetParam(), a.view(), 8, 1000);
      FAIL() << "expected NotPositiveDefiniteError";
    } catch (const NotPositiveDefiniteError& e) {
      EXPECT_EQ(e.column(), 1000 + bad);
      EXPECT_EQ(e.pivot(), -2.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Supported, PotrfIsaTest, ::testing::ValuesIn(dense::supported_isas()),
    [](const ::testing::TestParamInfo<dense::Isa>& info) {
      return std::string(dense::isa_name(info.param));
    });

}  // namespace
}  // namespace mfgpu
