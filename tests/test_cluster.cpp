// Tests for distance matrices and agglomerative hierarchical clustering.
#include "cluster/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "cluster/distance.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust::cluster {
namespace {

/// Two well-separated blobs of points in 2-D, `per` points each.
std::vector<std::vector<float>> two_blobs(std::size_t per, std::uint64_t seed,
                                          float gap = 10.0f) {
  Rng rng(seed);
  std::vector<std::vector<float>> pts;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < per; ++i) {
      pts.push_back({static_cast<float>(b) * gap +
                         static_cast<float>(rng.normal(0.0, 0.3)),
                     static_cast<float>(rng.normal(0.0, 0.3))});
    }
  }
  return pts;
}

/// Uniform random points in [-1, 1]^dim.
std::vector<std::vector<float>> random_points(std::size_t n, std::size_t dim,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> pts(n, std::vector<float>(dim));
  for (auto& p : pts) {
    for (float& x : p) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return pts;
}

// -- distance builders --------------------------------------------------------

TEST(Distance, EuclideanKnownValues) {
  const std::vector<std::vector<float>> v{{0, 0}, {3, 4}, {0, 0}};
  const Matrix d = pairwise_euclidean(v);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_NEAR(d(0, 1), 5.0, 1e-6);
  EXPECT_NEAR(d(1, 0), 5.0, 1e-6);
  EXPECT_NEAR(d(0, 2), 0.0, 1e-12);
}

TEST(Distance, CosineSimilarityKnownValues) {
  const std::vector<std::vector<float>> v{{1, 0}, {0, 1}, {-1, 0}, {2, 0}};
  const Matrix s = pairwise_cosine_similarity(v);
  EXPECT_NEAR(s(0, 1), 0.0, 1e-6);
  EXPECT_NEAR(s(0, 2), -1.0, 1e-6);
  EXPECT_NEAR(s(0, 3), 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(s(2, 2), 1.0);
}

TEST(Distance, CosineDistanceRange) {
  const std::vector<std::vector<float>> v{{1, 0}, {-1, 0}, {0, 1}};
  const Matrix d = pairwise_cosine_distance(v);
  EXPECT_NEAR(d(0, 1), 2.0, 1e-6);  // opposite
  EXPECT_NEAR(d(0, 2), 1.0, 1e-6);  // orthogonal
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(Distance, PooledEuclideanIsBitwiseSerial) {
  const auto pts = random_points(300, 37, 11);
  ThreadPool pool(4);
  const Matrix serial = pairwise_euclidean(pts);
  const Matrix pooled = pairwise_euclidean(pts, &pool);
  ASSERT_EQ(pooled.rows(), serial.rows());
  EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                        serial.rows() * serial.cols() * sizeof(double)),
            0);
}

TEST(Distance, RejectsRaggedInput) {
  EXPECT_THROW(pairwise_euclidean({{1, 2}, {1}}), Error);
  EXPECT_THROW(pairwise_euclidean({}), Error);
}

TEST(Distance, RejectsPoisonedRows) {
  // A NaN/Inf row (a corrupted upload that slipped past server-side
  // screening) must be rejected at the proximity boundary — the sqnorm
  // would otherwise be clamped to 0 by the max() in pairwise_euclidean
  // and silently yield a finite but wrong matrix.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(pairwise_euclidean({{0, 0}, {nan, 1}, {2, 2}}), Error);
  EXPECT_THROW(pairwise_euclidean({{0, 0}, {1, 1}, {inf, 2}}), Error);
  EXPECT_THROW(pairwise_cosine_similarity({{1, 0}, {nan, 1}}), Error);
  EXPECT_THROW(pairwise_cosine_distance({{1, 0}, {0, inf}}), Error);
}

// -- dendrogram ---------------------------------------------------------------

TEST(Hc, TwoBlobsSeparateAtK2) {
  const auto pts = two_blobs(5, 1);
  const Matrix d = pairwise_euclidean(pts);
  for (const Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                                Linkage::kAverage, Linkage::kWard}) {
    const Dendrogram dendro = agglomerative_cluster(d, linkage);
    EXPECT_EQ(dendro.merges.size(), 9u);
    const auto labels = dendro.cut_k(2);
    // First 5 in one cluster, last 5 in the other.
    for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(labels[i], labels[0]);
    for (std::size_t i = 6; i < 10; ++i) EXPECT_EQ(labels[i], labels[5]);
    EXPECT_NE(labels[0], labels[5]);
  }
}

TEST(Hc, CutKExtremes) {
  const auto pts = two_blobs(3, 2);
  const Dendrogram dendro =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  const auto one = dendro.cut_k(1);
  for (std::size_t l : one) EXPECT_EQ(l, 0u);
  const auto all = dendro.cut_k(6);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(all[i], i);
  EXPECT_THROW(dendro.cut_k(0), Error);
  EXPECT_THROW(dendro.cut_k(7), Error);
}

TEST(Hc, ThresholdCutMatchesGap) {
  const auto pts = two_blobs(4, 3);
  const Dendrogram dendro =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  // Within-blob merges happen below ~2; the cross-blob merge near 10.
  const auto labels = dendro.cut_threshold(5.0);
  EXPECT_EQ(num_clusters(labels), 2u);
  EXPECT_EQ(dendro.clusters_at(5.0), 2u);
  EXPECT_EQ(dendro.clusters_at(100.0), 1u);
  EXPECT_EQ(dendro.clusters_at(0.0), 8u);
}

TEST(Hc, MergeDistancesMonotone) {
  Rng rng(4);
  std::vector<std::vector<float>> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({static_cast<float>(rng.normal()),
                   static_cast<float>(rng.normal()),
                   static_cast<float>(rng.normal())});
  }
  for (const Linkage linkage :
       {Linkage::kComplete, Linkage::kAverage, Linkage::kWard}) {
    const Dendrogram d =
        agglomerative_cluster(pairwise_euclidean(pts), linkage);
    for (std::size_t m = 1; m < d.merges.size(); ++m) {
      EXPECT_GE(d.merges[m].distance, d.merges[m - 1].distance - 1e-9)
          << to_string(linkage) << " merge " << m;
    }
  }
}

TEST(Hc, MergeSizesAccumulate) {
  const auto pts = two_blobs(4, 5);
  const Dendrogram d =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  EXPECT_EQ(d.merges.back().size, 8u);  // final merge holds everyone
}

TEST(Hc, SingleLeafDegenerateCase) {
  Matrix d(1, 1);
  const Dendrogram dendro = agglomerative_cluster(d, Linkage::kAverage);
  EXPECT_TRUE(dendro.merges.empty());
  EXPECT_EQ(dendro.cut_k(1), (std::vector<std::size_t>{0}));
}

TEST(Hc, RejectsNonSquareMatrix) {
  Matrix d(2, 3);
  EXPECT_THROW(agglomerative_cluster(d, Linkage::kAverage), Error);
}

TEST(Hc, RejectsNonFiniteDistances) {
  // A hand-built matrix with one poisoned entry: every Lance–Williams
  // update touching its row would propagate the NaN, so the boundary
  // check must fire before any merge happens.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Matrix d(3, 3);
    d(0, 1) = d(1, 0) = 1.0;
    d(0, 2) = d(2, 0) = 2.0;
    d(1, 2) = d(2, 1) = bad;
    EXPECT_THROW(agglomerative_cluster(d, Linkage::kAverage), Error);
  }
}

TEST(Hc, SingleVsCompleteOnChain) {
  // A chain of points 0-1-2-3 with spacing 1: single linkage merges the
  // whole chain at distance 1, complete linkage needs larger distances.
  std::vector<std::vector<float>> pts{{0}, {1}, {2}, {3}};
  const Matrix d = pairwise_euclidean(pts);
  const Dendrogram s = agglomerative_cluster(d, Linkage::kSingle);
  const Dendrogram c = agglomerative_cluster(d, Linkage::kComplete);
  EXPECT_NEAR(s.merges.back().distance, 1.0, 1e-9);
  EXPECT_GT(c.merges.back().distance, 2.0);
}

TEST(Hc, LinkageNamesRoundTrip) {
  for (const Linkage l : {Linkage::kSingle, Linkage::kComplete,
                          Linkage::kAverage, Linkage::kWard}) {
    EXPECT_EQ(linkage_from_string(to_string(l)), l);
  }
  EXPECT_THROW(linkage_from_string("centroid"), Error);
}

// -- HC against the naive reference -------------------------------------------

/// The textbook O(n^3) loop: scan every active pair for the closest one
/// (strict <, row-major, so the first minimal pair wins), merge it into
/// the lower slot, and apply the Lance–Williams update. The production
/// algorithm must reproduce its merges bit for bit.
Dendrogram naive_agglomerative(const Matrix& distances, Linkage linkage) {
  const std::size_t n = distances.rows();
  Dendrogram out;
  out.num_leaves = n;
  Matrix d = distances;
  std::vector<bool> active(n, true);
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::vector<double> sz(n, 1.0);
  for (std::size_t step = 0; step + 1 < n; ++step) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (active[j] && d(i, j) < best) {
          best = d(i, j);
          bi = i;
          bj = j;
        }
      }
    }
    out.merges.push_back(
        {id[bi], id[bj], best, static_cast<std::size_t>(sz[bi] + sz[bj])});
    const double ni = sz[bi], nj = sz[bj];
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      const double dik = d(bi, k);
      const double djk = d(bj, k);
      double dnew = 0.0;
      switch (linkage) {
        case Linkage::kSingle:
          dnew = std::min(dik, djk);
          break;
        case Linkage::kComplete:
          dnew = std::max(dik, djk);
          break;
        case Linkage::kAverage:
          dnew = (ni * dik + nj * djk) / (ni + nj);
          break;
        case Linkage::kWard: {
          const double nk = sz[k];
          const double sq = ((ni + nk) * dik * dik + (nj + nk) * djk * djk -
                             nk * best * best) /
                            (ni + nj + nk);
          dnew = std::sqrt(std::max(sq, 0.0));
          break;
        }
      }
      d(bi, k) = dnew;
      d(k, bi) = dnew;
    }
    active[bj] = false;
    sz[bi] = ni + nj;
    id[bi] = n + step;
  }
  return out;
}

constexpr Linkage kAllLinkages[] = {Linkage::kSingle, Linkage::kComplete,
                                    Linkage::kAverage, Linkage::kWard};

/// Runs both algorithms on `d` under every linkage and compares the
/// merges field by field, distances by their bytes.
void expect_matches_naive(const Matrix& d, const std::string& what) {
  for (const Linkage linkage : kAllLinkages) {
    SCOPED_TRACE(what + " linkage=" + to_string(linkage));
    const Dendrogram want = naive_agglomerative(d, linkage);
    const Dendrogram got = agglomerative_cluster(d, linkage);
    ASSERT_EQ(got.num_leaves, want.num_leaves);
    ASSERT_EQ(got.merges.size(), want.merges.size());
    for (std::size_t m = 0; m < want.merges.size(); ++m) {
      SCOPED_TRACE("merge " + std::to_string(m));
      EXPECT_EQ(got.merges[m].a, want.merges[m].a);
      EXPECT_EQ(got.merges[m].b, want.merges[m].b);
      EXPECT_EQ(got.merges[m].size, want.merges[m].size);
      EXPECT_EQ(std::memcmp(&got.merges[m].distance, &want.merges[m].distance,
                            sizeof(double)),
                0)
          << got.merges[m].distance << " vs " << want.merges[m].distance;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Symmetric zero-diagonal matrix with entries drawn from 1..levels.
Matrix integer_matrix(std::size_t n, std::uint64_t levels, std::uint64_t seed) {
  Rng rng(seed);
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d(i, j) = d(j, i) = static_cast<double>(1 + rng.uniform_int(levels));
    }
  }
  return d;
}

TEST(HierarchicalReference, RandomEuclideanMatchesNaive) {
  for (std::size_t n = 1; n <= 120; ++n) {
    expect_matches_naive(pairwise_euclidean(random_points(n, 3, 100 + n)),
                         "n=" + std::to_string(n));
    if (HasFailure()) return;
  }
}

TEST(HierarchicalReference, DuplicateRowsMatchNaive) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // 60 points copied from 7 prototypes: many exact-zero distances.
    const auto protos = random_points(7, 4, seed);
    Rng rng(seed + 50);
    std::vector<std::vector<float>> pts;
    for (std::size_t i = 0; i < 60; ++i) {
      pts.push_back(protos[rng.uniform_int(protos.size())]);
    }
    expect_matches_naive(pairwise_euclidean(pts),
                         "seed=" + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST(HierarchicalReference, IntegerTiesMatchNaive) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t n = 10 + seed * 2;
    const std::uint64_t levels = 2 + seed % 4;
    expect_matches_naive(integer_matrix(n, levels, seed),
                         "n=" + std::to_string(n) +
                             " levels=" + std::to_string(levels));
    if (HasFailure()) return;
  }
}

TEST(HierarchicalReference, AllEqualMatrixMatchesNaive) {
  Matrix d(50, 50, 1.0);
  for (std::size_t i = 0; i < 50; ++i) d(i, i) = 0.0;
  expect_matches_naive(d, "all-equal");
}

TEST(HierarchicalReference, CandidateRoundingBackToItsBoundIsRescanned) {
  // Average linkage, row 0's nearest neighbour is slot 2 at 1.0. Slot 2
  // absorbs 3 (row 0 moves to 1+u), then slot 1 absorbs {4,5,6} and
  // rounds to a tie at 1.0, then slot 2 absorbs {7,8} and rounds back to
  // 1.0. The naive scan merges (0, 1): the smaller tying column wins.
  constexpr double u = 0x1p-52;
  Matrix d(9, 9, 5.0);
  auto set = [&](std::size_t i, std::size_t j, double v) {
    d(i, j) = d(j, i) = v;
  };
  for (std::size_t i = 0; i < 9; ++i) d(i, i) = 0.0;
  for (std::size_t j = 4; j < 9; ++j) set(0, j, 1.0);
  set(0, 1, 1.0 + u);
  set(0, 2, 1.0);
  set(0, 3, 1.0 + 2 * u);
  set(4, 5, 0.1);
  set(4, 6, 0.1);
  set(5, 6, 0.1);
  set(7, 8, 0.1);
  set(2, 3, 0.2);
  for (std::size_t j = 4; j < 7; ++j) set(1, j, 0.3);
  for (std::size_t i = 2; i < 4; ++i) {
    for (std::size_t j = 7; j < 9; ++j) set(i, j, 0.4);
  }
  const Dendrogram dendro = agglomerative_cluster(d, Linkage::kAverage);
  ASSERT_EQ(dendro.merges.size(), 8u);
  EXPECT_EQ(dendro.merges[6].a, 0u);
  EXPECT_EQ(dendro.merges[6].b, 13u);  // slot 1's cluster, formed 5th
  expect_matches_naive(d, "rounding tie");
}

// -- k-means -------------------------------------------------------------------

TEST(KMeans, SeparatesTwoBlobs) {
  const auto pts = two_blobs(6, 90);
  Rng rng(91);
  const KMeansResult r = kmeans(pts, 2, rng);
  EXPECT_TRUE(r.converged);
  // First 6 in one cluster, last 6 in the other.
  for (std::size_t i = 1; i < 6; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  for (std::size_t i = 7; i < 12; ++i) EXPECT_EQ(r.labels[i], r.labels[6]);
  EXPECT_NE(r.labels[0], r.labels[6]);
}

TEST(KMeans, KEqualsOneGivesGrandCentroid) {
  const auto pts = two_blobs(4, 92);
  Rng rng(93);
  const KMeansResult r = kmeans(pts, 1, rng);
  ASSERT_EQ(r.centers.size(), 1u);
  double mean_x = 0.0;
  for (const auto& p : pts) mean_x += p[0];
  mean_x /= static_cast<double>(pts.size());
  EXPECT_NEAR(r.centers[0][0], mean_x, 1e-6);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  const auto pts = two_blobs(3, 94);
  Rng rng(95);
  const KMeansResult r = kmeans(pts, pts.size(), rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeans, InertiaDecreasesWithK) {
  const auto pts = two_blobs(8, 96);
  Rng r1(97), r2(97);
  const double i2 = kmeans(pts, 2, r1).inertia;
  const double i4 = kmeans(pts, 4, r2).inertia;
  EXPECT_LE(i4, i2 + 1e-9);
}

TEST(KMeans, DeterministicGivenRng) {
  const auto pts = two_blobs(5, 98);
  Rng a(99), b(99);
  EXPECT_EQ(kmeans(pts, 2, a).labels, kmeans(pts, 2, b).labels);
}

TEST(KMeans, ValidatesArguments) {
  Rng rng(1);
  EXPECT_THROW(kmeans({}, 1, rng), Error);
  const std::vector<std::vector<float>> pts{{1.0f}, {2.0f}};
  EXPECT_THROW(kmeans(pts, 0, rng), Error);
  EXPECT_THROW(kmeans(pts, 3, rng), Error);
}

TEST(KMeans, AgreesWithHcOnCrispStructure) {
  const auto pts = two_blobs(6, 100);
  Rng rng(101);
  const KMeansResult km = kmeans(pts, 2, rng);
  const auto dendro = agglomerative_cluster(pairwise_euclidean(pts),
                                            Linkage::kAverage);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(km.labels, dendro.cut_k(2)), 1.0);
}

// -- threshold suggestion -----------------------------------------------------

TEST(SuggestThreshold, FindsTheBlobGap) {
  const auto pts = two_blobs(5, 6);
  const Dendrogram d =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  const double t = suggest_threshold(d);
  EXPECT_EQ(d.cut_threshold(t).size(), 10u);
  EXPECT_EQ(num_clusters(d.cut_threshold(t)), 2u);
}

TEST(SuggestThreshold, ThreeBlobsGiveThreeClusters) {
  Rng rng(7);
  std::vector<std::vector<float>> pts;
  for (std::size_t b = 0; b < 3; ++b) {
    for (int i = 0; i < 4; ++i) {
      pts.push_back({static_cast<float>(b) * 20.0f +
                         static_cast<float>(rng.normal(0.0, 0.2)),
                     static_cast<float>(rng.normal(0.0, 0.2))});
    }
  }
  const Dendrogram d =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  const double t = suggest_threshold(d);
  EXPECT_EQ(num_clusters(d.cut_threshold(t)), 3u);
}

TEST(SuggestThreshold, HomogeneousDataYieldsOneCluster) {
  // A single Gaussian blob has no natural gap -> expect the fallback.
  Rng rng(8);
  std::vector<std::vector<float>> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({static_cast<float>(rng.normal()),
                   static_cast<float>(rng.normal())});
  }
  const Dendrogram d =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  const double t = suggest_threshold(d, /*min_gap_ratio=*/4.0);
  EXPECT_EQ(num_clusters(d.cut_threshold(t)), 1u);
}

TEST(SuggestThreshold, TwoLeavesStayTogether) {
  std::vector<std::vector<float>> pts{{0}, {1}};
  const Dendrogram d =
      agglomerative_cluster(pairwise_euclidean(pts), Linkage::kAverage);
  const double t = suggest_threshold(d);
  EXPECT_EQ(num_clusters(d.cut_threshold(t)), 1u);
}

// -- helpers -------------------------------------------------------------------

TEST(MembersByCluster, GroupsIndices) {
  const std::vector<std::size_t> labels{0, 1, 0, 2, 1};
  const auto members = members_by_cluster(labels);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(members[1], (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(members[2], (std::vector<std::size_t>{3}));
}

}  // namespace
}  // namespace fedclust::cluster
