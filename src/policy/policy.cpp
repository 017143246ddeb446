#include "policy/policy.hpp"

#include "dense/blas.hpp"

namespace mfgpu {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::P1: return "P1";
    case Policy::P2: return "P2";
    case Policy::P3: return "P3";
    case Policy::P4: return "P4";
    case Policy::Batched: return "Batched";
  }
  throw InvalidArgumentError("policy_name: invalid policy");
}

Policy policy_from_index(int index) {
  MFGPU_CHECK(index >= 1 && index <= kMaxPolicyIndex,
              "policy_from_index: must be 1..5");
  return static_cast<Policy>(index);
}

double fu_total_ops(index_t m, index_t k) {
  return static_cast<double>(potrf_ops(k)) +
         static_cast<double>(trsm_ops(m, k)) +
         static_cast<double>(syrk_ops(m, k));
}

double fu_copy_bytes_basic(index_t m, index_t k) {
  const double words = static_cast<double>(k) * static_cast<double>(k) +
                       2.0 * static_cast<double>(m) * static_cast<double>(k) +
                       static_cast<double>(m) * static_cast<double>(m);
  return words * sizeof(float);
}

}  // namespace mfgpu
