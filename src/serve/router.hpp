// Request-to-cluster routing over a frozen ModelSnapshot.
//
// A request arrives with a routing feature vector: the client's warmup
// partial upload — the same final-layer weights FedClust clusters on.
// Three modes turn its distances to the stored cluster anchors into a
// serving decision:
//
//  * kHard     — serve the single nearest cluster's model. The distance
//                and argmin are the EXACT newcomer assignment rule from
//                core::FedClust (same cluster/routing primitives, same
//                strict-< tie-break), so a client routed here lands on
//                the same cluster the trainer would have assigned it to.
//  * kSoft     — Gaussian-weight every cluster by exp(-d²/2σ²) and mix
//                the cluster heads' probability outputs. Degrades
//                gracefully when a client sits between two clusters.
//  * kEnsemble — forward through every cluster head and weight each by
//                its own confidence (max softmax probability per input),
//                ignoring the distances entirely. Serves clients with no
//                usable routing features.
//
// The router itself is stateless apart from the snapshot pointer: one
// instance per worker, no locks.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "serve/registry.hpp"

namespace fedclust::serve {

enum class RouteMode {
  kHard,
  kSoft,
  kEnsemble,
};

/// "hard" / "soft" / "ensemble" — for logs and test traces.
const char* route_mode_name(RouteMode mode);

struct RouterConfig {
  RouteMode mode = RouteMode::kHard;
  /// kSoft bandwidth. 0 = auto: per request, σ is the mean of the finite
  /// cluster distances — scale-free, so one default works across models.
  double sigma = 0.0;
};

/// Outcome of routing one request (before any forward pass).
struct RouteDecision {
  /// Hard winner (strict-< argmin over mean distances; cluster 0 when
  /// nothing is reachable). kEnsemble leaves it at the argmax weight
  /// after the forward instead.
  std::size_t cluster = 0;
  /// Mean distance to each cluster's anchors (+inf for anchor-less
  /// clusters). Empty in kEnsemble mode (distances are not computed).
  std::vector<double> distances;
  /// Per-cluster mixture weights, summing to 1. kHard: one-hot. kSoft:
  /// Gaussian over distances. kEnsemble: empty here — filled per input
  /// from head confidences after the forward pass.
  std::vector<double> weights;
};

/// Turns a distance profile into normalized Gaussian weights
/// exp(-d²/2σ²). Subtracts the minimum d² before exponentiating (the
/// log-sum-exp trick) so widely separated clusters cannot underflow to
/// an all-zero weight vector; +inf distances get exactly weight 0.
/// sigma <= 0 selects the auto bandwidth (mean finite distance).
std::vector<double> gaussian_weights(const std::vector<double>& distances,
                                     double sigma);

class Router {
 public:
  Router(std::shared_ptr<const ModelSnapshot> snapshot, RouterConfig config);

  /// Routes one request by its partial-weight features. `features` must
  /// match the anchors' length except in kEnsemble mode, where it is
  /// ignored (may be empty).
  RouteDecision route(std::span<const float> features) const;

  const RouterConfig& config() const { return config_; }
  const ModelSnapshot& snapshot() const { return *snapshot_; }

 private:
  std::shared_ptr<const ModelSnapshot> snapshot_;
  RouterConfig config_;
};

}  // namespace fedclust::serve
