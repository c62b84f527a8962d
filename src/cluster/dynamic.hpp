// Online re-clustering: split/merge recovery for a drifted partition.
//
// When the drift detector flags clusters, the server re-solicits fresh
// partial-weight anchors from their members and repairs the partition
// in place rather than re-running formation from scratch:
//
//   1. Gaussian soft-membership reassignment ("Interaction-Aware
//      Gaussian Weighting for CFL", PAPERS.md): each flagged member's
//      anchor is scored against every cluster's mean anchor distance
//      (the newcomer rule's metric, self-excluded), converted to soft
//      memberships w_c ∝ exp(−d_c² / 2σ²) (σ = the member's mean finite
//      cluster distance), and the member moves to the argmax cluster
//      when its weight beats the home cluster's by the configured
//      margin. Members that genuinely migrated to another mode get
//      absorbed there — the "merge" direction.
//   2. Dendrogram split: each flagged cluster's remaining members (if
//      two or more) are re-clustered by agglomerative HC over their
//      refreshed anchors and cut at the formation threshold. Sub-clusters
//      beyond the first become new clusters inheriting the parent's
//      model — the "split" direction for cohorts that forked into
//      distinct modes.
//   3. Compaction: clusters left without active members are drained and
//      ids renumbered consecutively, so downstream code never sees a
//      hole in the label space.
//
// Everything is a pure function of (anchors, labels, flagged, active,
// config) — no RNG — so recovery is bit-identical across thread counts
// and checkpoint resume.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/hierarchical.hpp"

namespace fedclust::cluster {

struct ReclusterConfig {
  Linkage linkage = Linkage::kAverage;
  /// Dendrogram cut distance for the split stage — normally the
  /// formation run's threshold. <= 0 disables splitting (a threshold of
  /// 0 would shatter every flagged cluster into singletons).
  double threshold = 0.0;
  /// A member moves only when the best foreign soft membership exceeds
  /// `reassign_margin` times its home membership (1 = plain argmax;
  /// larger is stickier).
  double reassign_margin = 1.0;
};

struct ReclusterResult {
  /// New per-client labels, consecutive ids (departed clients included,
  /// remapped like everyone else so label invariants hold).
  std::vector<std::size_t> labels;
  /// For each new cluster id, the OLD cluster id whose server model it
  /// inherits (splits inherit the flagged parent's model).
  std::vector<std::size_t> parent;
  std::size_t moved = 0;    ///< members reassigned across clusters
  std::size_t splits = 0;   ///< new clusters born from the split stage
  std::size_t drained = 0;  ///< old clusters left without active members
};

/// exp(−d² / 2σ²) soft memberships over mean cluster distances.
/// Infinite distances (anchor-less clusters) get weight 0. Requires
/// sigma > 0.
std::vector<double> soft_memberships(const std::vector<double>& distances,
                                     double sigma);

/// Repairs a drifted partition (see file comment). `anchors` holds every
/// client's stored partial-weight upload (empty = no anchor: deferred or
/// departed — such members never move and never seed splits); `flagged`
/// lists the alarmed cluster ids; `active[i]` marks clients currently in
/// the fleet.
ReclusterResult recluster(const std::vector<std::vector<float>>& anchors,
                          const std::vector<std::size_t>& labels,
                          const std::vector<std::size_t>& flagged,
                          const std::vector<std::uint8_t>& active,
                          const ReclusterConfig& config);

}  // namespace fedclust::cluster
