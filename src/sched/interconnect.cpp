#include "sched/interconnect.hpp"

#include "support/error.hpp"

namespace mfgpu {

double InterconnectModel::wire_seconds(index_t m) const {
  if (!enabled() || m <= 0) return 0.0;
  return update_bytes(m) / bandwidth;
}

double InterconnectModel::transfer_time(index_t m) const {
  // An m == 0 update matrix carries no data: nothing crosses the wire and
  // no latency is charged (a root-bound front simply has no message).
  if (!enabled() || m <= 0) return 0.0;
  return latency + update_bytes(m) / bandwidth;
}

InterconnectModel shared_memory_link() { return {}; }
InterconnectModel infiniband_link() { return {1e9, 5e-6}; }
InterconnectModel gigabit_link() { return {1e8, 50e-6}; }

}  // namespace mfgpu
