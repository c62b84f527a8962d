#include "fl/async.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "robust/fault.hpp"
#include "utils/error.hpp"

namespace fedclust::fl {

double staleness_weight(StalenessKind kind, double exponent,
                        std::size_t staleness) {
  if (kind == StalenessKind::kConstant || staleness == 0) return 1.0;
  return 1.0 / std::pow(1.0 + static_cast<double>(staleness), exponent);
}

RunResult Algorithm::run(Federation& federation, std::size_t rounds) {
  return run_synchronized(federation, *this, rounds);
}

void Algorithm::after_round(Federation&, std::size_t, bool,
                            const AccuracySummary*, RunResult&) {}

std::span<const float> Algorithm::cluster_model(std::size_t) const {
  FEDCLUST_FAIL(name() << " does not expose async cluster models");
}

void Algorithm::set_cluster_model(std::size_t, std::vector<float>) {
  FEDCLUST_FAIL(name() << " does not expose async cluster models");
}

void Algorithm::save_state(robust::RunCheckpoint&) const {
  FEDCLUST_FAIL(name() << " does not support checkpoints");
}

void Algorithm::restore_state(Federation&, const robust::RunCheckpoint&) {
  FEDCLUST_FAIL(name() << " does not support checkpoints");
}

namespace {

/// Rounds [first, rounds) of the synchronous loop, appending to `result`.
void run_rounds(Federation& federation, Algorithm& algorithm,
                std::size_t first, std::size_t rounds, RunResult& result) {
  for (std::size_t round = first; round < rounds; ++round) {
    federation.comm().begin_round(round);
    const double loss = algorithm.sync_round(federation, round);
    const bool last = round + 1 == rounds;
    std::optional<AccuracySummary> acc;
    if (last || (round + 1) % federation.config().eval_every == 0) {
      acc = algorithm.evaluate(federation);
      result.rounds.push_back(make_round_metrics(
          round, *acc, loss, federation, algorithm.num_clusters(),
          algorithm.fingerprint()));
      if (last) result.final_accuracy = *acc;
    }
    algorithm.after_round(federation, round, last, acc ? &*acc : nullptr,
                          result);
  }
  algorithm.finish(result);
}

}  // namespace

RunResult run_synchronized(Federation& federation, Algorithm& algorithm,
                           std::size_t rounds) {
  federation.reset_comm();
  RunResult result;
  result.algorithm = algorithm.name();
  const std::size_t first = algorithm.begin(federation, result);
  FEDCLUST_REQUIRE(rounds > first,
                   algorithm.name() << " needs more than " << first
                                    << " rounds (formation included)");
  run_rounds(federation, algorithm, first, rounds, result);
  return result;
}

RunResult resume_synchronized(Federation& federation, Algorithm& algorithm,
                              const robust::RunCheckpoint& checkpoint,
                              std::size_t rounds) {
  FEDCLUST_REQUIRE(!checkpoint.async.present,
                   "checkpoint was written by the async engine");
  FEDCLUST_REQUIRE(checkpoint.labels.size() == federation.num_clients(),
                   "checkpoint covers " << checkpoint.labels.size()
                                        << " clients, federation has "
                                        << federation.num_clients());
  FEDCLUST_REQUIRE(checkpoint.next_round >= 1 && checkpoint.next_round < rounds,
                   "cannot resume at round " << checkpoint.next_round
                                             << " of a " << rounds
                                             << "-round run");
  RunResult result = restore_checkpoint(federation, algorithm, checkpoint);
  FEDCLUST_REQUIRE(federation.comm().round_count() == checkpoint.next_round,
                   "checkpoint comm series inconsistent with round index");
  run_rounds(federation, algorithm,
             static_cast<std::size_t>(checkpoint.next_round), rounds, result);
  return result;
}

robust::RunCheckpoint capture_checkpoint(const Federation& federation,
                                         const Algorithm& algorithm,
                                         const RunResult& result,
                                         std::size_t next_round) {
  robust::RunCheckpoint ck;
  ck.next_round = next_round;
  ck.seed = federation.config().seed;
  algorithm.save_state(ck);
  ck.rounds.reserve(result.rounds.size());
  for (const RoundMetrics& m : result.rounds) {
    ck.rounds.push_back(robust::RoundRecord{.round = m.round,
                                            .acc_mean = m.acc_mean,
                                            .acc_std = m.acc_std,
                                            .train_loss = m.train_loss,
                                            .cum_upload = m.cum_upload,
                                            .cum_download = m.cum_download,
                                            .num_clusters = m.num_clusters,
                                            .sim_seconds = m.sim_seconds,
                                            .weights_fp = m.weights_fp,
                                            .drift_score = m.drift_score,
                                            .drift_alarms = m.drift_alarms,
                                            .reclusters = m.reclusters});
  }
  const CommMeter& comm = federation.comm();
  ck.comm.round_download = comm.round_download();
  ck.comm.round_upload = comm.round_upload();
  ck.comm.total_download = comm.total_download();
  ck.comm.total_upload = comm.total_upload();
  if (federation.network_enabled()) {
    ck.net.present = true;
    ck.net.clock = federation.network()->now();
    ck.net.log = federation.network()->log();
  }
  const robust::Quarantine& q = federation.quarantine();
  ck.quarantine_counts.assign(q.strike_counts().begin(),
                              q.strike_counts().end());
  ck.quarantine_max_strikes = q.max_strikes();
  return ck;
}

RunResult restore_checkpoint(Federation& federation, Algorithm& algorithm,
                             const robust::RunCheckpoint& checkpoint) {
  FEDCLUST_REQUIRE(checkpoint.seed == federation.config().seed,
                   "checkpoint seed " << checkpoint.seed
                                      << " does not match federation seed "
                                      << federation.config().seed);
  FEDCLUST_REQUIRE(
      checkpoint.net.present == federation.network_enabled(),
      "checkpoint and federation disagree on the network simulator");

  RunResult result;
  result.algorithm = algorithm.name();
  result.rounds.reserve(checkpoint.rounds.size());
  for (const robust::RoundRecord& m : checkpoint.rounds) {
    result.rounds.push_back(RoundMetrics{
        .round = static_cast<std::size_t>(m.round),
        .acc_mean = m.acc_mean,
        .acc_std = m.acc_std,
        .train_loss = m.train_loss,
        .cum_upload = m.cum_upload,
        .cum_download = m.cum_download,
        .num_clusters = static_cast<std::size_t>(m.num_clusters),
        .sim_seconds = m.sim_seconds,
        .weights_fp = m.weights_fp,
        .drift_score = m.drift_score,
        .drift_alarms = static_cast<std::size_t>(m.drift_alarms),
        .reclusters = static_cast<std::size_t>(m.reclusters)});
  }
  federation.comm().restore(checkpoint.comm.round_download,
                            checkpoint.comm.round_upload,
                            checkpoint.comm.total_download,
                            checkpoint.comm.total_upload);
  if (federation.network_enabled()) {
    federation.network()->restore(checkpoint.net.clock, checkpoint.net.log);
  }
  federation.quarantine().restore(
      std::vector<std::size_t>(checkpoint.quarantine_counts.begin(),
                               checkpoint.quarantine_counts.end()),
      checkpoint.quarantine_max_strikes);
  algorithm.restore_state(federation, checkpoint);
  return result;
}

namespace {

/// One outstanding (or arrived-but-unflushed) client op. `start` is the
/// broadcast the client trains from — the cluster model at dispatch
/// time, already download-codec round-tripped — shared across every
/// dispatch of the same (cluster, version).
struct Dispatch {
  std::size_t seq = 0;
  std::size_t client = 0;
  std::size_t cluster = 0;
  std::size_t version = 0;
  std::shared_ptr<const std::vector<float>> start;
  net::OpOutcome outcome;
};

/// Min-heap order on (finish time, dispatch seq). The seq tiebreak is
/// total (seqs are unique), so the pop order — and with it the whole
/// event timeline — is independent of heap layout.
struct LaterFinish {
  bool operator()(const Dispatch& a, const Dispatch& b) const {
    if (a.outcome.finish != b.outcome.finish) {
      return a.outcome.finish > b.outcome.finish;
    }
    return a.seq > b.seq;
  }
};

/// The event-driven engine. Lifetime = one run (or one resumed run).
///
/// Invariants the loop maintains:
///   * every non-quarantined client is in exactly one place: the ready
///     queue, the in-flight heap, or (its update) a cluster buffer with
///     the client itself already back in ready;
///   * a cluster's buffered updates all have staleness fixed at arrival
///     (any flush of that cluster consumes its whole buffer, so no
///     version can slip between an arrival and the flush that eats it);
///   * comm window `first_ + flushes_done_` is open while dispatching,
///     and both legs of an op are metered at dispatch time — the
///     simulator logs an op's full causal future at dispatch, so
///     metering at arrival would break CommMeter-vs-log parity at
///     audit points that fall between the two.
class BufferedScheduler {
 public:
  BufferedScheduler(Federation& federation, Algorithm& algorithm,
                    const AsyncConfig& config)
      : fed_(federation), algo_(algorithm), cfg_(config) {
    FEDCLUST_REQUIRE(cfg_.buffer_k >= 1, "async: buffer_k must be >= 1");
    FEDCLUST_REQUIRE(fed_.network_enabled(),
                     "the async engine needs the network simulator "
                     "(config.network.enabled)");
    FEDCLUST_REQUIRE(algo_.supports_async(),
                     algo_.name() << " cannot run buffered: cluster "
                                     "membership is not static or a "
                                     "sync-only feature is on");
    FEDCLUST_REQUIRE(!fed_.drift_enabled(),
                     "drift scenarios drive the synchronous engine — the "
                     "buffered scheduler has no round clock to advance "
                     "the drift plan against");
    local_ = algo_.local_override();
    epochs_ = (local_ != nullptr ? *local_ : fed_.config().local).epochs;
  }

  RunResult run(std::size_t flushes) {
    FEDCLUST_REQUIRE(flushes >= 1, "async: need at least one flush");
    fed_.reset_comm();
    result_.algorithm = algo_.name();
    first_ = algo_.begin(fed_, result_);
    target_flushes_ = flushes;

    num_clusters_ = algo_.num_clusters();
    versions_.assign(num_clusters_, 0);
    buffers_.assign(num_clusters_, {});
    broadcast_.resize(num_clusters_);
    for (std::size_t c = 0; c < num_clusters_; ++c) {
      broadcast_[c] = snapshot_broadcast(c);
    }
    active_.assign(num_clusters_, 0);
    for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
      if (quarantined(i)) continue;
      ready_.push_back(i);
      ++active_[algo_.cluster_of(i)];
    }
    fed_.comm().begin_round(first_);

    event_loop();
    algo_.finish(result_);
    return result_;
  }

  RunResult resume(const robust::RunCheckpoint& ck, std::size_t flushes) {
    FEDCLUST_REQUIRE(ck.async.present,
                     "checkpoint holds no async scheduler state");
    first_ = static_cast<std::size_t>(ck.async.first_round);
    flushes_done_ = static_cast<std::size_t>(ck.async.flushes);
    target_flushes_ = flushes;
    FEDCLUST_REQUIRE(flushes > flushes_done_,
                     "cannot resume at flush " << flushes_done_ << " of a "
                                               << flushes << "-flush run");
    next_seq_ = static_cast<std::size_t>(ck.async.next_seq);

    result_ = restore_checkpoint(fed_, algo_, ck);
    FEDCLUST_REQUIRE(
        fed_.comm().round_count() == first_ + flushes_done_ + 1,
        "async checkpoint comm series inconsistent with flush index");

    num_clusters_ = algo_.num_clusters();
    FEDCLUST_REQUIRE(ck.async.versions.size() == num_clusters_,
                     "async checkpoint cluster count mismatch");
    versions_.assign(ck.async.versions.begin(), ck.async.versions.end());
    buffers_.assign(num_clusters_, {});
    broadcast_.resize(num_clusters_);
    for (std::size_t c = 0; c < num_clusters_; ++c) {
      broadcast_[c] = snapshot_broadcast(c);
    }

    // Revive in-flight and buffered dispatches against the saved
    // broadcast snapshots (keyed by cluster x version).
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<const std::vector<float>>>
        starts;
    for (const robust::AsyncStartRecord& s : ck.async.starts) {
      starts[{s.cluster, s.version}] =
          std::make_shared<const std::vector<float>>(s.weights);
    }
    const auto revive = [&](const robust::AsyncDispatchRecord& r) {
      Dispatch d;
      d.seq = static_cast<std::size_t>(r.seq);
      d.client = static_cast<std::size_t>(r.client);
      d.cluster = static_cast<std::size_t>(r.cluster);
      d.version = static_cast<std::size_t>(r.version);
      const auto it = starts.find({r.cluster, r.version});
      FEDCLUST_REQUIRE(it != starts.end(),
                       "async checkpoint is missing the broadcast for "
                       "cluster " << r.cluster << " version " << r.version);
      d.start = it->second;
      d.outcome = net::OpOutcome{r.delivered != 0, r.finish,
                                 static_cast<std::size_t>(r.attempts)};
      return d;
    };
    for (const robust::AsyncDispatchRecord& r : ck.async.inflight) {
      heap_.push_back(revive(r));
      std::push_heap(heap_.begin(), heap_.end(), LaterFinish{});
    }
    for (const robust::AsyncDispatchRecord& r : ck.async.buffered) {
      FEDCLUST_REQUIRE(r.cluster < num_clusters_,
                       "async checkpoint buffered record out of range");
      buffers_[static_cast<std::size_t>(r.cluster)].push_back(revive(r));
    }
    ready_.assign(ck.async.ready.begin(), ck.async.ready.end());
    active_.assign(num_clusters_, 0);
    for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
      if (!quarantined(i)) ++active_[algo_.cluster_of(i)];
    }

    event_loop();
    algo_.finish(result_);
    return result_;
  }

 private:
  bool quarantined(std::size_t client) const {
    return fed_.config().robust.validate.enabled &&
           fed_.quarantine().quarantined(client);
  }

  /// What the cluster's clients receive right now: decode(encode(model))
  /// under the download codec, the model itself otherwise.
  std::shared_ptr<const std::vector<float>> snapshot_broadcast(
      std::size_t cluster) const {
    const std::span<const float> m = algo_.cluster_model(cluster);
    std::vector<float> rt = fed_.download_roundtrip(m);
    if (rt.empty()) {
      return std::make_shared<const std::vector<float>>(m.begin(), m.end());
    }
    return std::make_shared<const std::vector<float>>(std::move(rt));
  }

  /// Flush trigger: buffer_k, but never more than the cluster's live
  /// membership — a cluster smaller than K (or shrunk by quarantine)
  /// must still make progress.
  std::size_t flush_threshold(std::size_t cluster) const {
    return std::max<std::size_t>(
        1, std::min(cfg_.buffer_k, active_[cluster]));
  }

  /// A client observed quarantined at its scheduling point leaves the
  /// rotation for good; its cluster's flush threshold may drop below the
  /// buffer's current fill.
  void retire(std::size_t client) {
    const std::size_t c = algo_.cluster_of(client);
    if (active_[c] > 0) --active_[c];
    if (flushes_done_ < target_flushes_ && !buffers_[c].empty() &&
        buffers_[c].size() >= flush_threshold(c)) {
      flush(c);
    }
  }

  void push_dispatch(std::size_t client) {
    Dispatch d;
    d.seq = next_seq_++;
    d.client = client;
    d.cluster = algo_.cluster_of(client);
    d.version = versions_[d.cluster];
    d.start = broadcast_[d.cluster];
    // Crash faults and dropout churn resolve at dispatch — same fate
    // model as a synchronous round with round := dispatch seq.
    const bool crashed = fed_.fault_plan().decide(d.seq, client, 0) ==
                         robust::FaultKind::kCrash;
    const bool churned = crashed || fed_.client_fails(client, d.seq);
    const net::ClientOp op = fed_.client_op(
        client,
        NetPayloads{fed_.model_size(), fed_.model_size(),
                    net::MessageKind::kModelUpdate},
        epochs_, churned);
    d.outcome =
        fed_.network()->simulate_client_op(d.seq, op, fed_.network()->now());
    // Both legs metered now (see class invariant above). A delivered
    // upload's bytes crossed the wire even if staleness or screening
    // later discards the update.
    fed_.meter_download(client, fed_.model_size());
    if (d.outcome.delivered) fed_.meter_upload(client, fed_.model_size());
    heap_.push_back(std::move(d));
    std::push_heap(heap_.begin(), heap_.end(), LaterFinish{});
  }

  Dispatch pop_earliest() {
    std::pop_heap(heap_.begin(), heap_.end(), LaterFinish{});
    Dispatch d = std::move(heap_.back());
    heap_.pop_back();
    return d;
  }

  void event_loop() {
    const std::size_t cap =
        cfg_.inflight == 0 ? fed_.num_clients() : cfg_.inflight;
    // Loud stall guard: with pathological settings (e.g. drop
    // probability 1.0) no upload ever arrives and no buffer ever fills;
    // fail instead of spinning forever.
    constexpr std::size_t kMaxEventsBetweenFlushes = 1u << 22;
    std::size_t events_since_flush = 0;
    while (flushes_done_ < target_flushes_) {
      while (heap_.size() < cap && !ready_.empty()) {
        const std::size_t client = ready_.front();
        ready_.pop_front();
        if (quarantined(client)) {
          retire(client);
          continue;
        }
        push_dispatch(client);
      }
      if (heap_.empty()) break;  // whole fleet quarantined
      const std::size_t before = flushes_done_;

      Dispatch d = pop_earliest();
      fed_.network()->advance_clock(d.outcome.finish);
      // Completion-driven re-dispatch: the client goes straight back in
      // the rotation whether its upload made it or not.
      ready_.push_back(d.client);
      if (d.outcome.delivered) {
        const std::size_t stale = versions_[d.cluster] - d.version;
        if (cfg_.max_staleness > 0 && stale > cfg_.max_staleness) {
          // robust::RejectReason::kStaleness: too old to mix in. The
          // bytes were already metered at dispatch; with validation on
          // the discard is also a strike.
          if (fed_.config().robust.validate.enabled) {
            fed_.quarantine().strike(d.client);
          }
        } else {
          const std::size_t c = d.cluster;
          buffers_[c].push_back(std::move(d));
          if (buffers_[c].size() >= flush_threshold(c)) flush(c);
        }
      }
      events_since_flush = flushes_done_ == before ? events_since_flush + 1 : 0;
      FEDCLUST_CHECK(events_since_flush < kMaxEventsBetweenFlushes,
                     "async scheduler stalled: " << events_since_flush
                         << " events without a buffer flush");
    }
  }

  void flush(std::size_t cluster) {
    std::vector<Dispatch> batch = std::move(buffers_[cluster]);
    buffers_[cluster].clear();

    // Lazy training: the timeline never depended on these weights, so
    // the flush trains its buffer here, with slot-ordered writes —
    // bit-identical for any executor width.
    std::vector<Federation::TrainJob> jobs;
    jobs.reserve(batch.size());
    for (const Dispatch& d : batch) {
      jobs.push_back(Federation::TrainJob{d.client, d.seq, *d.start});
    }
    Federation::ScreenedBatch screened =
        fed_.train_dispatched(std::move(jobs), local_);

    // Staleness-weighted mixing coefficients over the survivors:
    // c_i ∝ num_samples_i x λ(s_i), normalized. At unit staleness this
    // is exactly FedAvg's num_samples / total — the sync special case.
    std::vector<ClientUpdate> kept;
    std::vector<double> coeff;
    kept.reserve(batch.size());
    coeff.reserve(batch.size());
    double total = 0.0;
    double loss_sum = 0.0;
    for (std::size_t i = 0; i < screened.updates.size(); ++i) {
      if (!screened.accepted[i]) continue;
      const std::size_t stale = versions_[cluster] - batch[i].version;
      const double w =
          static_cast<double>(screened.updates[i].num_samples) *
          staleness_weight(cfg_.staleness_fn, cfg_.staleness_exponent, stale);
      loss_sum += screened.updates[i].train_loss;
      kept.push_back(std::move(screened.updates[i]));
      coeff.push_back(w);
      total += w;
    }
    double mean_loss = 0.0;
    if (!kept.empty()) {
      for (double& w : coeff) w /= total;
      algo_.set_cluster_model(
          cluster, fed_.aggregate(kept, algo_.cluster_model(cluster), coeff));
      ++versions_[cluster];
      broadcast_[cluster] = snapshot_broadcast(cluster);
      mean_loss = loss_sum / static_cast<double>(kept.size());
    }

    ++flushes_done_;
    const std::size_t round = first_ + flushes_done_ - 1;
    const bool last = flushes_done_ == target_flushes_;
    if (last || flushes_done_ % fed_.config().eval_every == 0) {
      const AccuracySummary acc = algo_.evaluate(fed_);
      result_.rounds.push_back(make_round_metrics(round, acc, mean_loss, fed_,
                                                  algo_.num_clusters(),
                                                  algo_.fingerprint()));
      if (last) result_.final_accuracy = acc;
    }
    if (!last) {
      fed_.comm().begin_round(first_ + flushes_done_);
      if (cfg_.checkpoint_every > 0 &&
          flushes_done_ % cfg_.checkpoint_every == 0) {
        robust::save_checkpoint(make_checkpoint(), cfg_.checkpoint_path);
      }
    }
  }

  robust::RunCheckpoint make_checkpoint() const {
    robust::RunCheckpoint ck =
        capture_checkpoint(fed_, algo_, result_, first_ + flushes_done_);
    ck.async.present = true;
    ck.async.first_round = first_;
    ck.async.flushes = flushes_done_;
    ck.async.next_seq = next_seq_;
    ck.async.versions.assign(versions_.begin(), versions_.end());
    ck.async.ready.assign(ready_.begin(), ready_.end());

    const auto to_record = [](const Dispatch& d) {
      return robust::AsyncDispatchRecord{
          .seq = d.seq,
          .client = d.client,
          .cluster = d.cluster,
          .version = d.version,
          .delivered = static_cast<std::uint8_t>(d.outcome.delivered ? 1 : 0),
          .finish = d.outcome.finish,
          .attempts = d.outcome.attempts};
    };
    std::vector<Dispatch> inflight(heap_.begin(), heap_.end());
    std::sort(inflight.begin(), inflight.end(),
              [](const Dispatch& a, const Dispatch& b) { return a.seq < b.seq; });
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<const std::vector<float>>>
        starts;
    for (const Dispatch& d : inflight) {
      ck.async.inflight.push_back(to_record(d));
      starts[{d.cluster, d.version}] = d.start;
    }
    for (const auto& buffer : buffers_) {
      for (const Dispatch& d : buffer) {
        ck.async.buffered.push_back(to_record(d));
        starts[{d.cluster, d.version}] = d.start;
      }
    }
    for (const auto& [key, weights] : starts) {
      ck.async.starts.push_back(
          robust::AsyncStartRecord{key.first, key.second, *weights});
    }
    return ck;
  }

  Federation& fed_;
  Algorithm& algo_;
  AsyncConfig cfg_;
  const LocalTrainConfig* local_ = nullptr;
  std::size_t epochs_ = 0;

  RunResult result_;
  std::size_t first_ = 0;
  std::size_t target_flushes_ = 0;
  std::size_t flushes_done_ = 0;
  std::size_t next_seq_ = 0;
  std::size_t num_clusters_ = 1;

  std::vector<std::size_t> versions_;  ///< flushes applied per cluster
  std::vector<std::size_t> active_;    ///< non-quarantined members per cluster
  std::vector<std::shared_ptr<const std::vector<float>>> broadcast_;
  std::vector<std::vector<Dispatch>> buffers_;
  std::deque<std::size_t> ready_;
  std::vector<Dispatch> heap_;  ///< std::push_heap/pop_heap + LaterFinish
};

}  // namespace

RunResult run_async(Federation& federation, Algorithm& algorithm,
                    const AsyncConfig& config, std::size_t flushes) {
  BufferedScheduler scheduler(federation, algorithm, config);
  return scheduler.run(flushes);
}

RunResult resume_async(Federation& federation, Algorithm& algorithm,
                       const AsyncConfig& config,
                       const robust::RunCheckpoint& checkpoint,
                       std::size_t flushes) {
  BufferedScheduler scheduler(federation, algorithm, config);
  return scheduler.resume(checkpoint, flushes);
}

}  // namespace fedclust::fl
