#include "sched/interconnect.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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

std::string link_description(const InterconnectModel& link) {
  if (!link.enabled()) return "shared";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1e B/s + %.1e s", link.bandwidth,
                link.latency);
  return buf;
}

InterconnectModel parse_link(const std::string& spec) {
  if (spec.empty() || spec == "shared") return shared_memory_link();
  if (spec == "infiniband") return infiniband_link();
  if (spec == "gigabit") return gigabit_link();
  const std::size_t comma = spec.find(',');
  if (comma == std::string::npos) {
    throw InvalidArgumentError(
        "parse_link: expected \"shared\", \"infiniband\", \"gigabit\", or "
        "\"<bandwidth>,<latency>\", got \"" + spec + "\"");
  }
  char* end = nullptr;
  const std::string bw_str = spec.substr(0, comma);
  const std::string lat_str = spec.substr(comma + 1);
  const double bandwidth = std::strtod(bw_str.c_str(), &end);
  if (end == bw_str.c_str() || *end != '\0' || !std::isfinite(bandwidth) ||
      bandwidth < 0.0) {
    throw InvalidArgumentError("parse_link: bad bandwidth \"" + bw_str + "\"");
  }
  const double latency = std::strtod(lat_str.c_str(), &end);
  if (end == lat_str.c_str() || *end != '\0' || !std::isfinite(latency) ||
      latency < 0.0) {
    throw InvalidArgumentError("parse_link: bad latency \"" + lat_str + "\"");
  }
  return {bandwidth, latency};
}

}  // namespace mfgpu
