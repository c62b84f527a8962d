// Agglomerative hierarchical clustering (HC).
//
// This is the server-side clustering step of FedClust (§III of the
// paper): given the proximity matrix of client final-layer weights, HC
// groups clients bottom-up. The threshold cut — rather than a fixed k —
// is what lets FedClust avoid pre-defining the number of clusters; the
// largest-gap heuristic picks that threshold from the dendrogram.
//
// Implementation: Lance–Williams updates over a dense distance matrix,
// with merges chosen by Müllner's nearest-neighbour-candidate heap:
// O(n^2) memory and typically O(n^2) time (O(n^3) worst case). Merges
// are bit-identical to the naive closest-pair scan's.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace fedclust::cluster {

enum class Linkage { kSingle, kComplete, kAverage, kWard };

std::string to_string(Linkage linkage);
Linkage linkage_from_string(const std::string& name);

/// One agglomeration step: clusters `a` and `b` (ids; leaves are
/// 0..n-1, the i-th merge creates id n+i) joined at `distance`.
struct Merge {
  std::size_t a = 0;
  std::size_t b = 0;
  double distance = 0.0;
  std::size_t size = 0;  ///< members in the newly formed cluster
};

/// Full merge history of an HC run over n leaves (n-1 merges).
struct Dendrogram {
  std::size_t num_leaves = 0;
  std::vector<Merge> merges;

  /// Flat clustering with exactly k clusters (1 <= k <= n). Labels are
  /// consecutive integers ordered by first leaf occurrence.
  std::vector<std::size_t> cut_k(std::size_t k) const;

  /// Flat clustering applying every merge with distance <= threshold.
  std::vector<std::size_t> cut_threshold(double threshold) const;

  /// Number of clusters a given threshold produces.
  std::size_t clusters_at(double threshold) const;
};

/// Runs agglomerative clustering on a symmetric distance matrix.
/// Ward linkage expects Euclidean distances.
Dendrogram agglomerative_cluster(const Matrix& distances, Linkage linkage);

/// Largest-gap threshold heuristic: place the cut in the middle of the
/// biggest jump between consecutive merge distances. Falls back to
/// "one cluster" (a threshold above the last merge) when the largest
/// jump is smaller than `min_gap_ratio` times the mean merge step —
/// i.e. when the dendrogram shows no natural cluster structure.
double suggest_threshold(const Dendrogram& dendrogram,
                         double min_gap_ratio = 2.0);

/// Number of distinct labels in a flat clustering.
std::size_t num_clusters(const std::vector<std::size_t>& labels);

/// Per-cluster member lists from a flat clustering.
std::vector<std::vector<std::size_t>> members_by_cluster(
    const std::vector<std::size_t>& labels);

}  // namespace fedclust::cluster
