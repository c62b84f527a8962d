#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

namespace fedclust::cluster {

std::string to_string(Linkage linkage) {
  switch (linkage) {
    case Linkage::kSingle:
      return "single";
    case Linkage::kComplete:
      return "complete";
    case Linkage::kAverage:
      return "average";
    case Linkage::kWard:
      return "ward";
  }
  FEDCLUST_FAIL("unknown Linkage");
}

Linkage linkage_from_string(const std::string& name) {
  if (name == "single") return Linkage::kSingle;
  if (name == "complete") return Linkage::kComplete;
  if (name == "average") return Linkage::kAverage;
  if (name == "ward") return Linkage::kWard;
  FEDCLUST_FAIL("unknown linkage '" << name
                                    << "' (single|complete|average|ward)");
}

namespace {

/// Applies merges while `take(merge_index)` holds, then relabels
/// components to consecutive ids ordered by first leaf occurrence.
template <typename TakePredicate>
std::vector<std::size_t> cut_impl(const Dendrogram& d, TakePredicate take) {
  const std::size_t n = d.num_leaves;
  // Union-find over leaf + internal ids.
  std::vector<std::size_t> parent(n + d.merges.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t m = 0; m < d.merges.size(); ++m) {
    if (!take(m)) continue;
    const std::size_t id = n + m;
    parent[find(d.merges[m].a)] = id;
    parent[find(d.merges[m].b)] = id;
  }
  std::vector<std::size_t> labels(n);
  std::vector<std::size_t> relabel(n + d.merges.size(),
                                   std::numeric_limits<std::size_t>::max());
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (relabel[root] == std::numeric_limits<std::size_t>::max()) {
      relabel[root] = next++;
    }
    labels[i] = relabel[root];
  }
  return labels;
}

}  // namespace

std::vector<std::size_t> Dendrogram::cut_k(std::size_t k) const {
  FEDCLUST_REQUIRE(k >= 1 && k <= num_leaves,
                   "cut_k: k=" << k << " outside [1, " << num_leaves << "]");
  const std::size_t apply = num_leaves - k;  // first `apply` merges
  return cut_impl(*this, [&](std::size_t m) { return m < apply; });
}

std::vector<std::size_t> Dendrogram::cut_threshold(double threshold) const {
  return cut_impl(
      *this, [&](std::size_t m) { return merges[m].distance <= threshold; });
}

std::size_t Dendrogram::clusters_at(double threshold) const {
  std::size_t applied = 0;
  for (const Merge& m : merges) {
    if (m.distance <= threshold) ++applied;
  }
  return num_leaves - applied;
}

Dendrogram agglomerative_cluster(const Matrix& distances, Linkage linkage) {
  const std::size_t n = distances.rows();
  FEDCLUST_REQUIRE(n > 0 && distances.cols() == n,
                   "distance matrix must be square and non-empty");
  // One non-finite distance corrupts every Lance–Williams update that
  // touches its row; reject at the boundary with attribution instead.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      FEDCLUST_REQUIRE(std::isfinite(distances(i, j)),
                       "non-finite distance at (" << i << ", " << j << ")");
    }
  }
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      FEDCLUST_DCHECK(std::abs(distances(i, j) - distances(j, i)) < 1e-9,
                      "distance matrix must be symmetric");
      FEDCLUST_DCHECK(distances(i, j) >= 0.0,
                      "distances must be non-negative");
    }
  }
#endif

  Dendrogram out;
  out.num_leaves = n;
  if (n == 1) return out;

  // Working copy; `active[i]` marks live clusters, `id[i]` their current
  // dendrogram id, `sz[i]` member counts.
  Matrix d = distances;
  std::vector<char> active(n, 1);
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::vector<double> sz(n, 1.0);

  // Müllner's generic algorithm (arXiv:1109.2378): row i keeps a lower
  // bound mindist[i] on min_{j>i} d(i, j) and a candidate nn[i], the
  // smallest such j, so merges follow the naive row-major closest-pair
  // scan exactly. A lazy min-heap orders rows by (mindist[i], i); kStale
  // marks a candidate that must be rescanned before it is trusted.
  constexpr std::size_t kStale = std::numeric_limits<std::size_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> mindist(n, kInf);
  std::vector<std::size_t> nn(n, kStale);
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  auto rescan = [&](std::size_t i) {
    mindist[i] = kInf;
    nn[i] = kStale;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (active[j] && d(i, j) < mindist[i]) {
        mindist[i] = d(i, j);
        nn[i] = j;
      }
    }
    if (nn[i] != kStale) heap.emplace(mindist[i], i);
  };
  auto valid = [&](std::size_t i) {
    return nn[i] != kStale && active[nn[i]] && d(i, nn[i]) == mindist[i];
  };
  for (std::size_t i = 0; i + 1 < n; ++i) rescan(i);

  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Pop until the top row's candidate is current. Every active row with
    // a candidate has a heap entry keyed by its lower bound, so a current
    // top is the global minimum, and the smallest such row wins ties.
    std::size_t bi = 0;
    for (;;) {
      const auto [key, i] = heap.top();
      heap.pop();
      if (!active[i] || key != mindist[i]) continue;
      if (valid(i)) {
        bi = i;
        break;
      }
      rescan(i);
    }
    const std::size_t bj = nn[bi];
    const double best = d(bi, bj);

    out.merges.push_back(
        {id[bi], id[bj], best, static_cast<std::size_t>(sz[bi] + sz[bj])});

    // Lance–Williams update of distances from the merged cluster (stored
    // in slot bi) to every other active cluster k. Rows k < bi changed in
    // column bi only, so their candidates are refreshed on the way.
    const double ni = sz[bi], nj = sz[bj];
    active[bj] = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi) continue;
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
          const double total = ni + nj + nk;
          const double sq = ((ni + nk) * dik * dik + (nj + nk) * djk * djk -
                             nk * best * best) /
                            total;
          dnew = std::sqrt(std::max(sq, 0.0));
          break;
        }
      }
      d(bi, k) = dnew;
      d(k, bi) = dnew;
      if (k > bi) continue;
      if (dnew < mindist[k]) {
        mindist[k] = dnew;
        nn[k] = bi;
        heap.emplace(dnew, k);
      } else if (nn[k] == bi) {
        // The candidate moved off its bound; rounding could bring it back
        // while a smaller column ties, so force a rescan.
        if (dnew != mindist[k]) nn[k] = kStale;
      } else if (dnew == mindist[k] && valid(k) && bi < nn[k]) {
        nn[k] = bi;
      }
    }
    sz[bi] = ni + nj;
    id[bi] = n + step;
    rescan(bi);
  }
  return out;
}

double suggest_threshold(const Dendrogram& dendrogram, double min_gap_ratio) {
  const auto& merges = dendrogram.merges;
  if (merges.empty()) return 0.0;
  if (merges.size() == 1) {
    // Two leaves: no interior gap to inspect; keep them together.
    return merges.back().distance + 1.0;
  }

  // Largest jump between consecutive merge distances (they are
  // non-decreasing for the monotone linkages used here).
  double best_gap = -1.0;
  std::size_t best_at = 0;
  double step_sum = 0.0;
  for (std::size_t m = 1; m < merges.size(); ++m) {
    const double gap = merges[m].distance - merges[m - 1].distance;
    step_sum += gap;
    if (gap > best_gap) {
      best_gap = gap;
      best_at = m;
    }
  }
  const double mean_step =
      step_sum / static_cast<double>(merges.size() - 1);

  // No pronounced gap -> flat dendrogram -> a single cluster.
  if (mean_step <= 0.0 || best_gap < min_gap_ratio * mean_step) {
    return merges.back().distance + 1.0;
  }
  return 0.5 * (merges[best_at - 1].distance + merges[best_at].distance);
}

std::size_t num_clusters(const std::vector<std::size_t>& labels) {
  if (labels.empty()) return 0;
  return *std::max_element(labels.begin(), labels.end()) + 1;
}

std::vector<std::vector<std::size_t>> members_by_cluster(
    const std::vector<std::size_t>& labels) {
  std::vector<std::vector<std::size_t>> out(num_clusters(labels));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[labels[i]].push_back(i);
  }
  return out;
}

}  // namespace fedclust::cluster
