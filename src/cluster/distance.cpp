#include "cluster/distance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust::cluster {
namespace {

void check_rectangular(const std::vector<std::vector<float>>& vectors) {
  FEDCLUST_REQUIRE(!vectors.empty(), "need at least one vector");
  const std::size_t dim = vectors.front().size();
  FEDCLUST_REQUIRE(dim > 0, "vectors must be non-empty");
  for (const auto& v : vectors) {
    FEDCLUST_REQUIRE(v.size() == dim, "vectors have inconsistent lengths");
  }
}

void check_proximity_invariants(const Matrix& d) {
  // Symmetric by construction (each pair is computed once and mirrored),
  // so any asymmetry or nonzero diagonal means memory corruption or a
  // future edit broke the contract hierarchical clustering relies on.
  // Distances must also be finite: one NaN/Inf input row (a poisoned
  // upload that slipped past screening) would silently derail every
  // Lance–Williams merge, so reject it here at the boundary.
  FEDCLUST_REQUIRE(is_symmetric(d), "proximity matrix must be symmetric");
  for (std::size_t i = 0; i < d.rows(); ++i) {
    FEDCLUST_REQUIRE(d(i, i) == 0.0, "proximity diagonal must be zero");
    for (std::size_t j = 0; j < d.cols(); ++j) {
      FEDCLUST_REQUIRE(std::isfinite(d(i, j)),
                       "non-finite proximity entry at (" << i << ", " << j
                                                         << ")");
    }
  }
}

}  // namespace

Matrix pairwise_euclidean(const std::vector<std::vector<float>>& vectors,
                          ThreadPool* pool) {
  check_rectangular(vectors);
  const std::size_t n = vectors.size();
  const std::size_t dim = vectors.front().size();
  const ops::KernelTable& kt = ops::kernels();

  // One pass per vector for its squared norm, then one dot product per
  // pair: ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b. Cuts the per-pair work from a
  // subtract-square-accumulate loop to a single fused dot, and the norms
  // from O(n²·dim) to O(n·dim). sqnorm is bitwise dot(x, x), so duplicate
  // rows cancel to exactly zero; tiny negative residues from rounding
  // are clamped before the sqrt.
  // A NaN squared norm would be silently clamped to 0 by the max()
  // below (NaN comparisons are false), so a poisoned row must be
  // rejected here, not trusted to surface downstream.
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) {
    sq[i] = kt.sqnorm(vectors[i].data(), dim);
    FEDCLUST_REQUIRE(std::isfinite(sq[i]),
                     "non-finite values in vector " << i
                                                    << " (poisoned upload?)");
  }

  Matrix d(n, n);
  auto row = [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dp = kt.dot(vectors[i].data(), vectors[j].data(), dim);
      const double s = std::max(0.0, sq[i] + sq[j] - 2.0 * dp);
      const double dist = std::sqrt(s);
      d(i, j) = dist;
      d(j, i) = dist;
    }
  };
  if (pool != nullptr) {
    // Row i holds n-i-1 pairs, so task p takes rows p and n-1-p: n-1
    // pairs per task, equal work whichever runner claims it.
    pool->parallel_for(0, (n + 1) / 2, [&](std::size_t p) {
      row(p);
      if (n - 1 - p != p) row(n - 1 - p);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) row(i);
  }
  check_proximity_invariants(d);
  return d;
}

Matrix pairwise_cosine_similarity(
    const std::vector<std::vector<float>>& vectors) {
  check_rectangular(vectors);
  const std::size_t n = vectors.size();
  const std::size_t dim = vectors.front().size();
  const ops::KernelTable& kt = ops::kernels();
  std::vector<double> norms(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    norms[i] = std::sqrt(kt.sqnorm(vectors[i].data(), dim));
    FEDCLUST_REQUIRE(std::isfinite(norms[i]),
                     "non-finite values in vector " << i
                                                    << " (poisoned upload?)");
  }
  Matrix sim(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sim(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dp = kt.dot(vectors[i].data(), vectors[j].data(), dim);
      const double denom = norms[i] * norms[j];
      const double s = denom > 0.0 ? dp / denom : 0.0;
      sim(i, j) = s;
      sim(j, i) = s;
    }
  }
  return sim;
}

Matrix pairwise_cosine_distance(
    const std::vector<std::vector<float>>& vectors) {
  Matrix d = pairwise_cosine_similarity(vectors);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      d(i, j) = std::clamp(1.0 - d(i, j), 0.0, 2.0);
    }
    d(i, i) = 0.0;
  }
  check_proximity_invariants(d);
  return d;
}

}  // namespace fedclust::cluster
