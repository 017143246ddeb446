// Shared test helper: gtest wrapper over first_factor_difference
// (multifrontal/factorization.hpp), the one place the "bitwise identical
// to the serial factor" promise is checked entry by entry.
#pragma once

#include <gtest/gtest.h>

#include "multifrontal/factorization.hpp"

namespace mfgpu::testing_helpers {

/// Success iff `a` and `b` hold the same panels, bitwise; the failure
/// message names the first differing entry.
inline ::testing::AssertionResult factors_bitwise_equal(
    const Factorization& a, const Factorization& b) {
  const std::optional<FactorDifference> diff = first_factor_difference(a, b);
  if (!diff) return ::testing::AssertionSuccess();
  if (a.panels.size() != b.panels.size()) {
    return ::testing::AssertionFailure() << "panel count " << a.panels.size()
                                         << " vs " << b.panels.size();
  }
  if (diff->row < 0) {
    return ::testing::AssertionFailure() << "panel " << diff->panel
                                         << " shape";
  }
  return ::testing::AssertionFailure()
         << "panel " << diff->panel << " entry (" << diff->row << ", "
         << diff->col << "): " << diff->a << " != " << diff->b;
}

}  // namespace mfgpu::testing_helpers
