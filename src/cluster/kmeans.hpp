// k-means clustering with k-means++ seeding.
//
// An alternative server-side grouping for the weight vectors FedClust
// collects: hierarchical clustering (the paper's choice) needs no k but
// costs O(n^2) time and memory; k-means needs k but scales further.
// The linkage ablation uses it as a comparison point, and IFCA-style
// systems use exactly this primitive server-side.
#pragma once

#include <cstddef>
#include <vector>

#include "utils/rng.hpp"

namespace fedclust::cluster {

struct KMeansResult {
  std::vector<std::size_t> labels;           ///< cluster per point
  std::vector<std::vector<double>> centers;  ///< k centroids
  double inertia = 0.0;   ///< sum of squared distances to own centroid
  std::size_t iterations = 0;
  bool converged = false;
};

/// Lloyd's algorithm over row vectors with k-means++ initialization.
/// Deterministic given `rng`'s state. Empty clusters are re-seeded with
/// the point farthest from its centroid.
KMeansResult kmeans(const std::vector<std::vector<float>>& points,
                    std::size_t k, Rng& rng, std::size_t max_iterations = 100,
                    double tol = 1e-7);

}  // namespace fedclust::cluster
