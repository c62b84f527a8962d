// Robust aggregation rules.
//
// fl::Federation::aggregate dispatches here when the configured rule is
// not the plain weighted mean. Each rule is coordinate-wise (or
// norm-wise) and computed independently per output element in double
// precision, so results are bit-identical across thread counts no
// matter how the coordinate range is chunked.
//
//  * kWeightedMean   — sample-weighted FedAvg (handled by fl's fused
//                      kernel path, never here; listed for completeness)
//  * kTrimmedMean    — per coordinate, drop the floor(trim_frac * n)
//                      smallest and largest values, average the rest
//                      (unweighted — trimming and sample weights do not
//                      compose meaningfully). Tolerates < trim_frac
//                      Byzantine clients per cluster.
//  * kCoordinateMedian — per-coordinate median (midpoint of the two
//                      middle values for even n). Maximal breakdown
//                      point, slowest convergence.
//  * kNormClip       — clip every update's delta (about `reference`,
//                      the pre-round model) to clip_factor x the median
//                      delta norm, then weighted-average the clipped
//                      updates. Defuses blow-up attacks while keeping
//                      sample weighting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "robust/validate.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust::robust {

enum class AggregationRule : std::uint8_t {
  kWeightedMean = 0,
  kTrimmedMean,
  kCoordinateMedian,
  kNormClip,
};

const char* to_string(AggregationRule rule);
AggregationRule aggregation_rule_from_string(const std::string& name);

/// Robustness knobs of the federation engine (validation + aggregation
/// rule). Default-constructed = plain weighted mean, no validation: the
/// engine then behaves bit-identically to the pre-robustness engine.
struct RobustConfig {
  AggregationRule rule = AggregationRule::kWeightedMean;
  /// kTrimmedMean: fraction trimmed from EACH side per coordinate.
  double trim_frac = 0.2;
  /// kNormClip: deltas are clipped to clip_factor x median delta norm.
  double clip_factor = 1.0;
  /// Arrival screening + quarantine (see robust/validate.hpp).
  ValidationPolicy validate{};
};

/// Aggregates `inputs` (equal-length weight vectors) under `rule`.
/// `coefficients` are the normalized sample weights (used by kNormClip;
/// ignored by the trimmed mean and median, which are unweighted).
/// `reference` anchors kNormClip deltas — the pre-round model, required
/// (dim floats) by kNormClip and ignored by the other rules. `pool` may
/// be null; any pool size yields bit-identical output.
std::vector<float> robust_aggregate(
    const std::vector<std::span<const float>>& inputs,
    const std::vector<double>& coefficients, AggregationRule rule,
    const RobustConfig& config, std::span<const float> reference,
    ThreadPool* pool);

/// Sparse-aware trimmed mean over top-k codec frames. A decoded top-k
/// update carries the broadcast `reference_fill` verbatim in every
/// coordinate it did NOT ship, so "participated in coordinate d" is
/// exactly `inputs[u][d] != reference_fill[d]` (bit-equal). Per
/// coordinate the rule trims floor(trim_frac * m) from each side of the
/// m PARTICIPATING values and averages the rest; a coordinate nobody
/// shipped stays at the reference — the same "no update, no movement"
/// semantics the dense decode already has. With dense inputs (every
/// coordinate differing from the reference) this degenerates to the
/// classic trimmed mean over all n updates. Requires trim_frac in
/// [0, 0.5); when floor(trim_frac * m) would trim everything the trim
/// shrinks to keep at least one value (m <= 2 keeps all m).
std::vector<float> sparse_trimmed_mean(
    const std::vector<std::span<const float>>& inputs, double trim_frac,
    std::span<const float> reference_fill, ThreadPool* pool);

}  // namespace fedclust::robust
