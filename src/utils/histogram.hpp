// Streaming percentile recorder over positive measurements (request
// latencies, round wall times).
//
// Geometric buckets: a value lands in the bucket whose upper edge is the
// smallest min_value·growthⁱ at or above it, so a quantile estimate is
// off by at most a factor of `growth` (2% at the default) while the
// recorder stays O(#buckets) memory and O(1) per record, with no sample
// retention. min/max/mean/count are exact; percentile estimates are
// clamped into the observed [min, max] range.
//
// Used by serve::EngineStats for p50/p99/p999 request latency and by
// bench/fleet_scale for round wall-time tails. Not internally
// synchronized — either record from one thread, or keep one histogram
// per thread and merge() at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedclust::utils {

class StreamingHistogram {
 public:
  /// `min_value` is the resolution floor (every value at or below it
  /// shares bucket 0); `growth` is the ratio between consecutive bucket
  /// edges and bounds the relative quantile error.
  explicit StreamingHistogram(double min_value = 1e-4, double growth = 1.02);

  /// Records one measurement; must be finite and non-negative.
  void record(double value);
  /// Adds another histogram's samples; geometries must match.
  void merge(const StreamingHistogram& other);
  void clear();

  std::uint64_t count() const { return count_; }
  /// Exact extremes/mean of everything recorded; NaN with no samples.
  double min() const;
  double max() const;
  double mean() const;

  /// Quantile estimate for p in [0, 100]. p=0 returns the exact min and
  /// p=100 the exact max; NaN with no samples.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

 private:
  std::size_t bucket_index(double value) const;
  double bucket_upper(std::size_t index) const;

  double min_value_;
  double growth_;
  double inv_log_growth_;
  std::vector<std::uint64_t> buckets_;  // grown on demand
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fedclust::utils
