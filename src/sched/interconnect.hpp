// Inter-node communication model of the simulated-cluster factorization
// engine (cluster/cluster.hpp) and its subtree placement
// (cluster/placement.hpp). Shared memory is the zero-cost link: threads on
// one host are nodes joined by shared_memory_link().
//
// The paper closes by naming a distributed-memory (cluster) version of the
// solver as its future work; this models the wire between nodes as a
// bandwidth + latency link over which packed update matrices travel.
#pragma once

#include "support/error.hpp"

namespace mfgpu {

/// One point-to-point link between distinct nodes (or workers). bandwidth
/// == 0 means shared memory: a child's update matrix is free to consume
/// from anywhere.
struct InterconnectModel {
  double bandwidth = 0.0;  ///< B/s between distinct nodes (0 = shared mem)
  double latency = 0.0;    ///< s per transfer

  bool enabled() const { return bandwidth > 0.0; }

  /// Bytes on the wire for an m x m packed-lower update matrix (doubles).
  static double update_bytes(index_t m) {
    return static_cast<double>(m) * static_cast<double>(m + 1) / 2.0 * 8.0;
  }

  /// Seconds the wire itself is busy shipping an m x m packed update
  /// matrix (no latency term — the cluster engine serializes these on the
  /// producer's egress lane and adds latency once per message).
  double wire_seconds(index_t m) const;

  /// Total seconds to ship an m x m packed update matrix across: latency
  /// plus wire time. An empty update (m == 0) sends nothing and costs
  /// nothing — no latency is charged.
  double transfer_time(index_t m) const;

  friend bool operator==(const InterconnectModel&,
                         const InterconnectModel&) = default;
};

/// Named presets used throughout benches and docs.
InterconnectModel shared_memory_link();   ///< free (bandwidth 0)
InterconnectModel infiniband_link();      ///< 1 GB/s, 5 us
InterconnectModel gigabit_link();         ///< 0.1 GB/s, 50 us

}  // namespace mfgpu
