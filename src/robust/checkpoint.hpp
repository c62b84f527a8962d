// Crash-recoverable run checkpoints.
//
// A RunCheckpoint captures everything the round engines (fl/async.hpp)
// needs to continue bit-identically after a process kill: the next
// round index, the per-cluster server models, the formation artifacts
// the newcomer path depends on, the metric/comm/network trajectory so
// far, and the quarantine ledger. RNG state is deliberately ABSENT —
// every stream in the engine is derived functionally from (seed,
// purpose, round, client, attempt), so "RNG position" is fully
// determined by the round index alone.
//
// On-disk format (little-endian, nn::wire codec):
//   magic "FCKP" | u32 version | body | u32 crc32(magic..body)
// The trailing CRC makes torn or bit-flipped files fail loudly at load
// time instead of silently resuming a corrupted run. The body carries
// the async scheduler block (in-flight dispatches, per-cluster buffers,
// dispatch frontier) and per-round drift telemetry plus the
// drift-detector block, so async runs and the evolving partition of a
// dynamic run resume bit-identically. There is one format version; the
// loader refuses every other.
//
// This header mirrors fl::RoundMetrics and fl::CommMeter state as plain
// structs instead of including fl/ headers: robust/ sits below fl/ in
// the library stack and must not depend on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/event.hpp"

namespace fedclust::robust {

/// Plain mirror of fl::RoundMetrics (field-for-field) so the metrics
/// trajectory can round-trip through a checkpoint without a dependency
/// on fl/.
struct RoundRecord {
  std::uint64_t round = 0;
  double acc_mean = 0.0;
  double acc_std = 0.0;
  double train_loss = 0.0;
  std::uint64_t cum_upload = 0;
  std::uint64_t cum_download = 0;
  std::uint64_t num_clusters = 1;
  double sim_seconds = 0.0;
  std::uint64_t weights_fp = 0;
  // --- drift telemetry (zero when dynamic clustering is off) ---
  double drift_score = 0.0;         ///< detector mean-shift score
  std::uint64_t drift_alarms = 0;   ///< clusters alarmed at this eval
  std::uint64_t reclusters = 0;     ///< cumulative recovery operations
};

/// Full state of a CommMeter: the per-round series and the run totals.
/// The totals are redundant with the series' sums; restore checks that
/// they agree, so a snapshot whose totals were altered is refused.
struct CommSnapshot {
  std::vector<std::uint64_t> round_download;
  std::vector<std::uint64_t> round_upload;
  std::uint64_t total_download = 0;
  std::uint64_t total_upload = 0;
};

/// Network simulator state: virtual clock + full event log. `present`
/// distinguishes "simulator disabled" from "enabled with empty log".
struct NetSnapshot {
  bool present = false;
  double clock = 0.0;
  std::vector<net::Event> log;
};

/// One async dispatch that was in flight (or arrived but unflushed) at
/// checkpoint time. `version` is the cluster-model version the client
/// downloaded; `delivered`/`finish`/`attempts` mirror the simulated
/// net::OpOutcome so resume does not re-simulate the op.
struct AsyncDispatchRecord {
  std::uint64_t seq = 0;
  std::uint64_t client = 0;
  std::uint64_t cluster = 0;
  std::uint64_t version = 0;
  std::uint8_t delivered = 0;
  double finish = 0.0;
  std::uint64_t attempts = 0;
};

/// Broadcast weights for one (cluster, version) still referenced by an
/// in-flight or buffered dispatch — what those clients are training
/// from (already download-codec round-tripped).
struct AsyncStartRecord {
  std::uint64_t cluster = 0;
  std::uint64_t version = 0;
  std::vector<float> weights;
};

/// Buffered-async scheduler state. `present` is false for synchronous
/// checkpoints.
struct AsyncSnapshot {
  bool present = false;
  std::uint64_t first_round = 0;  ///< metrics round offset (formation)
  std::uint64_t flushes = 0;      ///< buffer flushes applied so far
  std::uint64_t next_seq = 0;     ///< dispatch frontier
  std::vector<std::uint64_t> versions;  ///< per-cluster applied flushes
  std::vector<std::uint64_t> ready;     ///< re-dispatch queue, in order
  std::vector<AsyncDispatchRecord> inflight;  ///< sorted by seq
  /// Arrived-but-unflushed dispatches, grouped by cluster in buffer
  /// (arrival) order.
  std::vector<AsyncDispatchRecord> buffered;
  std::vector<AsyncStartRecord> starts;
};

/// Drift-detector state. `present` is false when dynamic clustering is
/// off. The trailing accuracy
/// windows and breach streaks are the only detector state — alarms are
/// re-derived from them — so carrying these makes kill/resume of a
/// dynamic run bit-identical, including the round a recovery fires.
struct DriftSnapshot {
  bool present = false;
  std::uint64_t recoveries = 0;  ///< recovery re-clusterings applied
  std::uint64_t cooldown = 0;    ///< post-recovery observe() holdoff left
  /// The formation run's applied dendrogram cut — the split stage of a
  /// post-resume recovery must cut at exactly this distance.
  double threshold = 0.0;
  std::vector<std::uint64_t> streaks;       ///< per-cluster breach streaks
  std::vector<std::vector<double>> windows; ///< per-cluster trailing accs
};

/// Everything needed to resume a run after `next_round - 1` completed.
struct RunCheckpoint {
  std::uint64_t next_round = 0;  ///< first round still to execute
  std::uint64_t seed = 0;        ///< federation seed (verified on resume)
  std::vector<std::uint64_t> labels;  ///< per-client cluster assignment
  std::vector<std::vector<float>> cluster_weights;
  /// Formation-round partial uploads (index = client; empty vector for
  /// deferred clients) — the newcomer path measures against these.
  std::vector<std::vector<float>> partial_weights;
  std::vector<RoundRecord> rounds;  ///< metrics emitted so far
  CommSnapshot comm;
  NetSnapshot net;
  std::vector<std::uint64_t> quarantine_counts;  ///< index = client id
  std::uint64_t quarantine_max_strikes = 0;
  /// Event-driven engine state (fl/async); present only for checkpoints
  /// written mid-async-run.
  AsyncSnapshot async;
  /// Dynamic-clustering detector state; the evolving partition
  /// itself rides the ordinary labels/cluster_weights/partial_weights
  /// fields, which a recovery rewrites in place.
  DriftSnapshot drift;
};

/// Serializes `ck` to `path` ("FCKP" format with CRC32 trailer).
void save_checkpoint(const RunCheckpoint& ck, const std::string& path);

/// Loads a checkpoint; throws fedclust::Error on a missing, truncated,
/// corrupted (CRC mismatch), or wrong-version file.
RunCheckpoint load_checkpoint(const std::string& path);

}  // namespace fedclust::robust
