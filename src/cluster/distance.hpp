// Pairwise distance / proximity matrix builders.
//
// FedClust's server computes the proximity matrix between clients from
// their uploaded final-layer weight vectors (Euclidean); CFL uses the
// cosine distance between client update vectors. Both produce a
// symmetric non-negative Matrix ready for hierarchical clustering.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace fedclust {
class ThreadPool;
}

namespace fedclust::cluster {

/// Pairwise Euclidean distances between row vectors.
/// `vectors[i]` must all have the same length. With a `pool`, rows are
/// split across its workers; the result is bitwise the same either way.
Matrix pairwise_euclidean(const std::vector<std::vector<float>>& vectors,
                          ThreadPool* pool = nullptr);

/// Pairwise cosine distance (1 - cosine similarity), clamped to [0, 2].
Matrix pairwise_cosine_distance(const std::vector<std::vector<float>>& vectors);

/// Pairwise cosine similarity in [-1, 1] (CFL's bipartition criterion).
Matrix pairwise_cosine_similarity(
    const std::vector<std::vector<float>>& vectors);

}  // namespace fedclust::cluster
