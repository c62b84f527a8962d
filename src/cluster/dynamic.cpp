#include "cluster/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/distance.hpp"
#include "cluster/routing.hpp"
#include "utils/error.hpp"

namespace fedclust::cluster {

std::vector<double> soft_memberships(const std::vector<double>& distances,
                                     double sigma) {
  FEDCLUST_REQUIRE(sigma > 0.0, "gaussian sigma must be positive");
  std::vector<double> w(distances.size(), 0.0);
  const double denom = 2.0 * sigma * sigma;
  for (std::size_t c = 0; c < distances.size(); ++c) {
    if (std::isfinite(distances[c])) {
      w[c] = std::exp(-(distances[c] * distances[c]) / denom);
    }
  }
  return w;
}

ReclusterResult recluster(const std::vector<std::vector<float>>& anchors,
                          const std::vector<std::size_t>& labels,
                          const std::vector<std::size_t>& flagged,
                          const std::vector<std::uint8_t>& active,
                          const ReclusterConfig& config) {
  const std::size_t n = labels.size();
  FEDCLUST_REQUIRE(anchors.size() == n && active.size() == n,
                   "recluster: anchors/labels/active size mismatch");
  FEDCLUST_REQUIRE(config.reassign_margin > 0.0,
                   "reassign_margin must be positive");
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  std::vector<std::uint8_t> is_flagged(k, 0);
  for (std::size_t c : flagged) {
    FEDCLUST_REQUIRE(c < k, "flagged cluster " << c << " out of range");
    is_flagged[c] = 1;
  }

  ReclusterResult out;
  std::vector<std::size_t> work = labels;

  // Stage 1 — Gaussian soft-membership reassignment. Every decision is
  // computed against the ORIGINAL labels and applied afterwards, so the
  // outcome is independent of member processing order.
  std::vector<std::vector<float>> pool = anchors;
  std::vector<std::pair<std::size_t, std::size_t>> moves;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i] || anchors[i].empty() || !is_flagged[labels[i]]) continue;
    // Self-exclusion: the member's own anchor must not vote for its home
    // cluster (mean_cluster_distances skips empty anchors).
    std::vector<float> self = std::move(pool[i]);
    pool[i].clear();
    const std::vector<double> d =
        mean_cluster_distances(self, pool, labels, k);
    pool[i] = std::move(self);
    // Per-member Gaussian width: the mean finite distance.
    double sum = 0.0;
    std::size_t cnt = 0;
    for (double x : d) {
      if (std::isfinite(x)) {
        sum += x;
        ++cnt;
      }
    }
    if (cnt == 0 || sum <= 0.0) continue;
    const std::vector<double> w =
        soft_memberships(d, sum / static_cast<double>(cnt));
    const std::size_t home = labels[i];
    std::size_t best = home;
    for (std::size_t c = 0; c < k; ++c) {
      if (c == home) continue;
      if (best == home || w[c] > w[best]) best = c;  // first wins ties
    }
    if (best != home && w[best] > config.reassign_margin * w[home]) {
      moves.emplace_back(i, best);
    }
  }
  for (const auto& [i, to] : moves) work[i] = to;
  out.moved = moves.size();

  // Stage 2 — dendrogram split of each flagged cluster's survivors.
  std::size_t next = k;
  std::vector<std::size_t> split_parent;  // ext id (>= k) -> flagged parent
  if (config.threshold > 0.0) {
    for (std::size_t c : flagged) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < n; ++i) {
        if (work[i] == c && active[i] && !anchors[i].empty()) {
          members.push_back(i);
        }
      }
      if (members.size() < 2) continue;
      std::vector<std::vector<float>> member_anchors;
      member_anchors.reserve(members.size());
      for (std::size_t i : members) member_anchors.push_back(anchors[i]);
      const Dendrogram dendro = agglomerative_cluster(
          pairwise_euclidean(member_anchors), config.linkage);
      const std::vector<std::size_t> sub =
          dendro.cut_threshold(config.threshold);
      const std::size_t nsub = num_clusters(sub);
      if (nsub <= 1) continue;
      // Sub-cluster 0 keeps the parent id; the rest become new clusters
      // (ids appended past k) inheriting the parent's model.
      for (std::size_t m = 0; m < members.size(); ++m) {
        if (sub[m] > 0) work[members[m]] = next + sub[m] - 1;
      }
      for (std::size_t s = 1; s < nsub; ++s) split_parent.push_back(c);
      out.splits += nsub - 1;
      next += nsub - 1;
    }
  }

  // Stage 3 — drain clusters with no active members and renumber the
  // survivors consecutively (ascending old id = deterministic).
  std::vector<std::uint8_t> has_active(next, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) has_active[work[i]] = 1;
  }
  if (std::find(has_active.begin(), has_active.end(), 1) ==
      has_active.end()) {
    has_active[0] = 1;  // degenerate fleet: keep one cluster alive
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (!has_active[c]) ++out.drained;
  }
  constexpr std::size_t kDropped = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> remap(next, kDropped);
  for (std::size_t c = 0; c < next; ++c) {
    if (has_active[c]) {
      remap[c] = out.parent.size();
      out.parent.push_back(c < k ? c : split_parent[c - k]);
    }
  }
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Members of drained clusters are necessarily inactive; park them on
    // cluster 0 so label invariants (label < k) hold everywhere.
    out.labels[i] = remap[work[i]] == kDropped ? 0 : remap[work[i]];
  }
  return out;
}

}  // namespace fedclust::cluster
