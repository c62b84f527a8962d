// Communication accounting.
//
// Every parameter vector shipped between server and clients is metered
// here. The paper's efficiency claim is that FedClust forms clusters in
// ONE communication round (uploading only final-layer weights), versus
// CFL's many rounds of full-model traffic — this meter is what the
// comm_cost bench reads.
//
// Without the network simulator, transfers are metered at their encoded
// size: bare float32 width (CommMeter::float_bytes) when no update codec
// is configured, or the codec's encoded byte count when one is (see
// Federation::download_wire_bytes / upload_wire_bytes). With the
// simulator enabled the engine meters framed wire sizes instead — raw v2
// frames or codec v3 frames as appropriate — and the meter's totals are
// exactly the delivered traffic of the simulator's event log (see
// net::delivered_bytes) — the meter is a byte-count view over that log.
// CommMeter::float_bytes itself is only the identity/raw fallback; all
// codec-aware sizing lives in the Federation helpers above, which every
// metering call site routes through.
//
// The meter counts bytes per round and per direction, never per client:
// no reader needs attribution, and at fleet scale it would grow with
// every client ever sampled.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedclust::fl {

/// Byte counters split by direction, with per-round granularity.
class CommMeter {
 public:
  /// Marks the beginning of round `r`. Rounds must be opened strictly in
  /// order starting at 0; anything else throws instead of mis-indexing
  /// the per-round series.
  void begin_round(std::size_t round);

  /// Same as begin_round(round); the cohort is ignored. Kept so fleet
  /// drivers that pass their cohort keep compiling.
  void begin_round(std::size_t round, std::span<const std::size_t> /*cohort*/) {
    begin_round(round);
  }

  /// Records server -> client traffic (model broadcast).
  void download(std::uint64_t bytes);
  /// Records client -> server traffic (update upload).
  void upload(std::uint64_t bytes);

  /// Bytes for a vector of `num_floats` float32 values. This hard-codes
  /// float32 width and is correct only for RAW (uncompressed) transfers;
  /// codec-encoded transfers must be metered via
  /// Federation::download_wire_bytes / upload_wire_bytes instead.
  static std::uint64_t float_bytes(std::size_t num_floats) {
    return static_cast<std::uint64_t>(num_floats) * 4;
  }

  std::uint64_t total_download() const { return total_down_; }
  std::uint64_t total_upload() const { return total_up_; }
  std::uint64_t total() const { return total_down_ + total_up_; }

  /// Number of rounds opened so far.
  std::size_t round_count() const { return down_.size(); }

  /// Per-round totals (index = round order passed to begin_round).
  const std::vector<std::uint64_t>& round_download() const { return down_; }
  const std::vector<std::uint64_t>& round_upload() const { return up_; }

  void reset();

  /// Restores all counters from a checkpoint snapshot, so metering can
  /// continue with begin_round(round_count()). Throws unless the two
  /// series have equal length and each total equals the sum of its
  /// series.
  void restore(std::vector<std::uint64_t> round_down,
               std::vector<std::uint64_t> round_up, std::uint64_t total_down,
               std::uint64_t total_up);

 private:
  std::vector<std::uint64_t> down_;
  std::vector<std::uint64_t> up_;
  std::uint64_t total_down_ = 0;
  std::uint64_t total_up_ = 0;
};

}  // namespace fedclust::fl
