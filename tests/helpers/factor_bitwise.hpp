// Shared test helper: bitwise comparison of two numeric factors. Drivers
// promise a factor bitwise identical to the serial one; this is the one
// place that promise is checked entry by entry.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "multifrontal/factorization.hpp"

namespace mfgpu::testing_helpers {

/// True iff `a` and `b` hold the same panels, bitwise (lower triangle of
/// each pivot block and every row below it).
inline ::testing::AssertionResult factors_bitwise_equal(
    const Factorization& a, const Factorization& b) {
  if (a.panels.size() != b.panels.size()) {
    return ::testing::AssertionFailure() << "panel count " << a.panels.size()
                                         << " vs " << b.panels.size();
  }
  for (std::size_t s = 0; s < a.panels.size(); ++s) {
    const Matrix<double>& pa = a.panels[s];
    const Matrix<double>& pb = b.panels[s];
    if (pa.rows() != pb.rows() || pa.cols() != pb.cols()) {
      return ::testing::AssertionFailure() << "panel " << s << " shape";
    }
    for (index_t j = 0; j < pa.cols(); ++j) {
      for (index_t i = j; i < pa.rows(); ++i) {
        if (pa(i, j) != pb(i, j)) {
          return ::testing::AssertionFailure()
                 << "panel " << s << " entry (" << i << ", " << j
                 << "): " << pa(i, j) << " != " << pb(i, j);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mfgpu::testing_helpers
