#include "serve/router.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "cluster/routing.hpp"
#include "utils/error.hpp"

namespace fedclust::serve {

const char* route_mode_name(RouteMode mode) {
  switch (mode) {
    case RouteMode::kHard:
      return "hard";
    case RouteMode::kSoft:
      return "soft";
    case RouteMode::kEnsemble:
      return "ensemble";
  }
  FEDCLUST_FAIL("unreachable route mode");
}

RouteMode parse_route_mode(const std::string& name) {
  if (name == "hard") return RouteMode::kHard;
  if (name == "soft") return RouteMode::kSoft;
  if (name == "ensemble") return RouteMode::kEnsemble;
  FEDCLUST_FAIL("unknown route mode '" << name
                                        << "' (hard | soft | ensemble)");
}

std::vector<double> gaussian_weights(const std::vector<double>& distances,
                                     double sigma) {
  FEDCLUST_REQUIRE(!distances.empty(), "no clusters to weight");

  double min_sq = std::numeric_limits<double>::infinity();
  double finite_sum = 0.0;
  std::size_t finite_count = 0;
  for (double d : distances) {
    if (!std::isfinite(d)) continue;
    min_sq = std::min(min_sq, d * d);
    finite_sum += d;
    ++finite_count;
  }
  FEDCLUST_REQUIRE(finite_count > 0,
                   "every cluster is anchor-less; cannot soft-route");

  if (sigma <= 0.0) sigma = finite_sum / static_cast<double>(finite_count);
  // All anchors can coincide with the query (σ auto-resolves to 0);
  // any positive bandwidth then yields the same uniform weighting.
  if (sigma <= 0.0) sigma = 1.0;

  const double inv_two_sq = 1.0 / (2.0 * sigma * sigma);
  std::vector<double> w(distances.size(), 0.0);
  double total = 0.0;
  for (std::size_t c = 0; c < distances.size(); ++c) {
    if (!std::isfinite(distances[c])) continue;  // weight stays exactly 0
    w[c] = std::exp(-(distances[c] * distances[c] - min_sq) * inv_two_sq);
    total += w[c];
  }
  for (double& x : w) x /= total;
  return w;
}

Router::Router(std::shared_ptr<const ModelSnapshot> snapshot,
               RouterConfig config)
    : snapshot_(std::move(snapshot)), config_(config) {
  FEDCLUST_REQUIRE(snapshot_ != nullptr, "router needs a snapshot");
}

RouteDecision Router::route(std::span<const float> features) const {
  const ModelSnapshot& snap = *snapshot_;
  RouteDecision decision;

  if (config_.mode == RouteMode::kEnsemble) {
    // Confidence weighting happens after the forward pass, per input;
    // there is nothing to decide from the features here.
    return decision;
  }

  decision.distances = cluster::mean_cluster_distances(
      features, snap.partial_weights, snap.labels, snap.num_clusters(),
      &snap.anchor_sqnorms);
  decision.cluster = cluster::nearest_cluster(decision.distances);

  if (config_.mode == RouteMode::kHard) {
    decision.weights.assign(snap.num_clusters(), 0.0);
    decision.weights[decision.cluster] = 1.0;
  } else {
    decision.weights = gaussian_weights(decision.distances, config_.sigma);
  }
  return decision;
}

}  // namespace fedclust::serve
