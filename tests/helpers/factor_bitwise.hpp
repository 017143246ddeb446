// Shared test helper: bitwise comparison of two numeric factors in either
// storage precision. Drivers promise a factor bitwise identical to the
// serial one; this is the one place that promise is checked entry by entry.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "multifrontal/factorization.hpp"

namespace mfgpu::testing_helpers {

template <typename T>
::testing::AssertionResult panel_sets_bitwise_equal(
    const std::vector<Matrix<T>>& a, const std::vector<Matrix<T>>& b,
    const char* precision) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << precision << " panel count " << a.size() << " vs " << b.size();
  }
  for (std::size_t s = 0; s < a.size(); ++s) {
    const Matrix<T>& pa = a[s];
    const Matrix<T>& pb = b[s];
    if (pa.rows() != pb.rows() || pa.cols() != pb.cols()) {
      return ::testing::AssertionFailure()
             << precision << " panel " << s << " shape";
    }
    for (index_t j = 0; j < pa.cols(); ++j) {
      for (index_t i = j; i < pa.rows(); ++i) {
        if (pa(i, j) != pb(i, j)) {
          return ::testing::AssertionFailure()
                 << precision << " panel " << s << " entry (" << i << ", "
                 << j << "): " << pa(i, j) << " != " << pb(i, j);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// True iff `a` and `b` hold the same panels, bitwise, in both the double
/// (`panels`) and the single-precision (`panels32`) storage.
inline ::testing::AssertionResult factors_bitwise_equal(
    const Factorization& a, const Factorization& b) {
  if (a.single_precision() != b.single_precision()) {
    return ::testing::AssertionFailure() << "storage precision differs";
  }
  ::testing::AssertionResult doubles =
      panel_sets_bitwise_equal(a.panels, b.panels, "double");
  if (!doubles) return doubles;
  return panel_sets_bitwise_equal(a.panels32, b.panels32, "float");
}

}  // namespace mfgpu::testing_helpers
