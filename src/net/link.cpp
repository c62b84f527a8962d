#include "net/link.hpp"

#include "utils/error.hpp"

namespace fedclust::net {
namespace {

ClientLink lan_link() {
  return {.latency_s = 1e-3,
          .bandwidth_Bps = 125e6,  // 1 Gbps
          .jitter_s = 2e-4,
          .drop_prob = 0.0,
          .compute_scale = 1.0};
}

ClientLink wan_link() {
  return {.latency_s = 0.05,
          .bandwidth_Bps = 2.5e6,  // 20 Mbps
          .jitter_s = 0.01,
          .drop_prob = 0.01,
          .compute_scale = 1.0};
}

/// Cellular draws vary per client: bandwidth 2-10 Mbps, latency
/// 60-150 ms, and a 1-3x device slowdown.
ClientLink cellular_link(Rng& rng) {
  return {.latency_s = rng.uniform(0.06, 0.15),
          .bandwidth_Bps = rng.uniform(2.5e5, 1.25e6),
          .jitter_s = 0.03,
          .drop_prob = 0.03,
          .compute_scale = rng.uniform(1.0, 3.0)};
}

}  // namespace

Profile profile_from_string(const std::string& name) {
  if (name == "lan") return Profile::kLan;
  if (name == "wan") return Profile::kWan;
  if (name == "cellular") return Profile::kCellular;
  if (name == "heterogeneous") return Profile::kHeterogeneous;
  FEDCLUST_FAIL("unknown network profile '"
                << name << "' (want lan|wan|cellular|heterogeneous)");
}

const char* to_string(Profile profile) {
  switch (profile) {
    case Profile::kLan:
      return "lan";
    case Profile::kWan:
      return "wan";
    case Profile::kCellular:
      return "cellular";
    case Profile::kHeterogeneous:
      return "heterogeneous";
  }
  return "unknown";
}

std::vector<Profile> all_profiles() {
  return {Profile::kLan, Profile::kWan, Profile::kCellular,
          Profile::kHeterogeneous};
}

std::vector<ClientLink> make_links(Profile profile, std::size_t num_clients,
                                   Rng rng) {
  std::vector<ClientLink> links;
  links.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    Rng crng = rng.split(c);
    switch (profile) {
      case Profile::kLan:
        links.push_back(lan_link());
        break;
      case Profile::kWan:
        links.push_back(wan_link());
        break;
      case Profile::kCellular:
        links.push_back(cellular_link(crng));
        break;
      case Profile::kHeterogeneous: {
        // 40% lan-class, 35% wan-class, 25% cellular-class devices, with
        // an extra compute spread so stragglers exist on every tier.
        const std::size_t tier = crng.categorical({0.40, 0.35, 0.25});
        ClientLink link = tier == 0   ? lan_link()
                          : tier == 1 ? wan_link()
                                      : cellular_link(crng);
        link.compute_scale *= crng.uniform(0.5, 2.0);
        links.push_back(link);
        break;
      }
    }
  }
  return links;
}

double transfer_seconds(const ClientLink& link, std::uint64_t bytes,
                        Rng& rng) {
  FEDCLUST_REQUIRE(link.bandwidth_Bps > 0.0, "link bandwidth must be > 0");
  double t = link.latency_s + static_cast<double>(bytes) / link.bandwidth_Bps;
  if (link.jitter_s > 0.0) t += rng.uniform(0.0, link.jitter_s);
  return t;
}

}  // namespace fedclust::net
