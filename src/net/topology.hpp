// Static two-level aggregation tree for cross-device rounds.
//
// Flat aggregation ships every cohort update to the server — O(cohort)
// resident updates and O(cohort × model) bytes on the server's ingress
// link. A two-level tree splits the round's cohort (by slot in the sorted
// cohort list) into `num_edges` contiguous, balanced groups; each edge
// aggregator folds its group's updates into one running partial, and the
// server folds the edge partials in edge order. Because the engine folds
// every update through one shared slot-ordered double accumulator
// (ops::weighted_accumulate_partial), the tree result is bit-identical
// to flat weighted_average for ANY edge count — see
// fl::Federation::train_clients_folded.
//
// Robust rules (trimmed mean / median / norm-clip), the sign-SGD vote and
// server-side validation need the full update sample per coordinate and
// therefore cannot fold; they gather at the root and aggregate against
// the pre-round model (explicit O(cohort × model) memory note in
// DESIGN.md §4f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace fedclust::net {

struct EdgeTopology {
  /// Edge aggregators between clients and server; 1 = flat.
  std::size_t num_edges = 1;

  /// Effective edge count for a cohort: at least 1, at most the cohort
  /// size (an edge with no clients sends nothing).
  std::size_t clamped_edges(std::size_t cohort) const;

  /// Contiguous [begin, end) of cohort slots handled by `edge`; balanced
  /// to within one slot.
  std::pair<std::size_t, std::size_t> slot_range(std::size_t edge,
                                                 std::size_t cohort) const;

  /// float32 values crossing the edge→server links in one round: one
  /// partial-aggregate frame per non-empty edge, versus `cohort` full
  /// update frames flat — the tree's bandwidth headline.
  std::uint64_t server_link_floats(std::size_t cohort,
                                   std::size_t model_floats) const;
};

}  // namespace fedclust::net
