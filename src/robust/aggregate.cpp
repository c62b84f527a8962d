#include "robust/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <future>

#include "utils/error.hpp"

namespace fedclust::robust {
namespace {

/// Runs body(begin, end) over [0, dim) in contiguous chunks across the
/// pool. Per-coordinate math is independent of the chunking, so any
/// worker count produces bit-identical output.
void chunked(std::size_t dim, ThreadPool* pool,
             const std::function<void(std::size_t, std::size_t)>& body) {
  constexpr std::size_t kMinParallelDim = 1u << 14;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  if (workers <= 1 || dim < kMinParallelDim) {
    body(0, dim);
    return;
  }
  const std::size_t chunk = (dim + workers - 1) / workers;
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min(dim, w * chunk);
    const std::size_t end = std::min(dim, begin + chunk);
    if (begin >= end) break;
    futures.push_back(pool->submit([&body, begin, end] { body(begin, end); }));
  }
  for (auto& f : futures) f.get();
}

std::vector<float> trimmed_mean(
    const std::vector<std::span<const float>>& inputs, std::size_t dim,
    double trim_frac, ThreadPool* pool) {
  const std::size_t n = inputs.size();
  const std::size_t trim = static_cast<std::size_t>(
      std::floor(trim_frac * static_cast<double>(n)));
  FEDCLUST_REQUIRE(2 * trim < n,
                   "trim_frac " << trim_frac << " trims all " << n
                                << " updates — need 2*floor(frac*n) < n");
  std::vector<float> out(dim);
  chunked(dim, pool, [&](std::size_t begin, std::size_t end) {
    std::vector<float> column(n);
    for (std::size_t d = begin; d < end; ++d) {
      for (std::size_t u = 0; u < n; ++u) column[u] = inputs[u][d];
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (std::size_t u = trim; u < n - trim; ++u) {
        sum += static_cast<double>(column[u]);
      }
      out[d] = static_cast<float>(sum / static_cast<double>(n - 2 * trim));
    }
  });
  return out;
}

std::vector<float> coordinate_median(
    const std::vector<std::span<const float>>& inputs, std::size_t dim,
    ThreadPool* pool) {
  const std::size_t n = inputs.size();
  std::vector<float> out(dim);
  chunked(dim, pool, [&](std::size_t begin, std::size_t end) {
    std::vector<float> column(n);
    for (std::size_t d = begin; d < end; ++d) {
      for (std::size_t u = 0; u < n; ++u) column[u] = inputs[u][d];
      const std::size_t mid = n / 2;
      std::nth_element(column.begin(), column.begin() + mid, column.end());
      if (n % 2 == 1) {
        out[d] = column[mid];
      } else {
        const float lower =
            *std::max_element(column.begin(), column.begin() + mid);
        out[d] = static_cast<float>(
            0.5 * (static_cast<double>(lower) +
                   static_cast<double>(column[mid])));
      }
    }
  });
  return out;
}

std::vector<float> norm_clip(const std::vector<std::span<const float>>& inputs,
                             const std::vector<double>& coefficients,
                             std::size_t dim, double clip_factor,
                             std::span<const float> reference,
                             ThreadPool* pool) {
  const std::size_t n = inputs.size();
  FEDCLUST_REQUIRE(reference.size() == dim,
                   "norm-clip reference size mismatch");
  FEDCLUST_REQUIRE(clip_factor > 0.0, "clip_factor must be positive");

  // Delta norms about the reference, then the median as the clip anchor.
  std::vector<double> norms(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    double sq = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(inputs[u][d]) -
                          static_cast<double>(reference[d]);
      sq += diff * diff;
    }
    norms[u] = std::sqrt(sq);
  }
  std::vector<double> sorted = norms;
  const std::size_t mid = n / 2;
  std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
  double median = sorted[mid];
  if (n % 2 == 0 && n > 0) {
    median = 0.5 * (*std::max_element(sorted.begin(), sorted.begin() + mid) +
                    median);
  }
  const double bound = clip_factor * median;

  std::vector<double> scale(n, 1.0);
  for (std::size_t u = 0; u < n; ++u) {
    if (norms[u] > bound && norms[u] > 0.0) scale[u] = bound / norms[u];
  }

  std::vector<float> out(dim);
  chunked(dim, pool, [&](std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      const double r = static_cast<double>(reference[d]);
      double acc = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        const double clipped =
            r + scale[u] * (static_cast<double>(inputs[u][d]) - r);
        acc += coefficients[u] * clipped;
      }
      out[d] = static_cast<float>(acc);
    }
  });
  return out;
}

}  // namespace

const char* to_string(AggregationRule rule) {
  switch (rule) {
    case AggregationRule::kWeightedMean:
      return "weighted_mean";
    case AggregationRule::kTrimmedMean:
      return "trimmed_mean";
    case AggregationRule::kCoordinateMedian:
      return "coordinate_median";
    case AggregationRule::kNormClip:
      return "norm_clip";
  }
  return "unknown";
}

AggregationRule aggregation_rule_from_string(const std::string& name) {
  if (name == "weighted_mean") return AggregationRule::kWeightedMean;
  if (name == "trimmed_mean") return AggregationRule::kTrimmedMean;
  if (name == "coordinate_median") return AggregationRule::kCoordinateMedian;
  if (name == "norm_clip") return AggregationRule::kNormClip;
  FEDCLUST_FAIL("unknown aggregation rule '" << name << "'");
}

std::vector<float> sparse_trimmed_mean(
    const std::vector<std::span<const float>>& inputs, double trim_frac,
    std::span<const float> reference_fill, ThreadPool* pool) {
  FEDCLUST_REQUIRE(!inputs.empty(), "sparse_trimmed_mean over zero updates");
  FEDCLUST_REQUIRE(trim_frac >= 0.0 && trim_frac < 0.5,
                   "trim_frac must be in [0, 0.5)");
  const std::size_t n = inputs.size();
  const std::size_t dim = reference_fill.size();
  for (const auto& in : inputs) {
    FEDCLUST_REQUIRE(in.size() == dim,
                     "update size mismatch in sparse_trimmed_mean");
  }
  std::vector<float> out(dim);
  chunked(dim, pool, [&](std::size_t begin, std::size_t end) {
    std::vector<float> column;
    column.reserve(n);
    for (std::size_t d = begin; d < end; ++d) {
      const float fill = reference_fill[d];
      column.clear();
      for (std::size_t u = 0; u < n; ++u) {
        // Bit-equality with the broadcast marks "not shipped" — the
        // top-k decode wrote the reference there verbatim. A shipped
        // coordinate that happens to equal the reference is
        // indistinguishable, and treating it as absent changes nothing:
        // its value is the fill either way.
        if (inputs[u][d] != fill) column.push_back(inputs[u][d]);
      }
      const std::size_t m = column.size();
      if (m == 0) {
        out[d] = fill;  // nobody moved this coordinate
        continue;
      }
      std::size_t trim = static_cast<std::size_t>(
          std::floor(trim_frac * static_cast<double>(m)));
      if (2 * trim >= m) trim = (m - 1) / 2;  // keep at least one value
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (std::size_t u = trim; u < m - trim; ++u) {
        sum += static_cast<double>(column[u]);
      }
      out[d] = static_cast<float>(sum / static_cast<double>(m - 2 * trim));
    }
  });
  return out;
}

std::vector<float> robust_aggregate(
    const std::vector<std::span<const float>>& inputs,
    const std::vector<double>& coefficients, AggregationRule rule,
    const RobustConfig& config, std::span<const float> reference,
    ThreadPool* pool) {
  FEDCLUST_REQUIRE(!inputs.empty(), "robust_aggregate over zero updates");
  FEDCLUST_REQUIRE(coefficients.size() == inputs.size(),
                   "coefficients must align with inputs");
  const std::size_t dim = inputs.front().size();
  for (const auto& in : inputs) {
    FEDCLUST_REQUIRE(in.size() == dim,
                     "update size mismatch in robust_aggregate");
  }
  FEDCLUST_CHECK(rule != AggregationRule::kWeightedMean,
                 "kWeightedMean is aggregated by the engine's fused "
                 "kernel path, not robust_aggregate");
  switch (rule) {
    case AggregationRule::kWeightedMean:
    case AggregationRule::kTrimmedMean:
      return trimmed_mean(inputs, dim, config.trim_frac, pool);
    case AggregationRule::kCoordinateMedian:
      return coordinate_median(inputs, dim, pool);
    case AggregationRule::kNormClip:
      return norm_clip(inputs, coefficients, dim, config.clip_factor,
                       reference, pool);
  }
  FEDCLUST_FAIL("unhandled aggregation rule");
}

}  // namespace fedclust::robust
