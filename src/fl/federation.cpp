#include "fl/federation.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>

#include "check/audit.hpp"
#include "fl/drift_fleet.hpp"
#include "fl/streaming.hpp"
#include "tensor/kernels.hpp"
#include "utils/logging.hpp"

namespace fedclust::fl {
namespace {

/// Dimension-chunked dispatch of the flat weighted_accumulate reduction.
/// Chunk boundaries are rounded up to ops::kChunkAlign so every element
/// keeps the same vector-lane membership no matter how many workers split
/// the range — the result stays bit-identical across thread counts.
template <typename ReduceRange>
void chunked_reduce(std::size_t dim, ThreadPool* pool,
                    const ReduceRange& reduce_range) {
  constexpr std::size_t kMinParallelDim = 1u << 15;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  if (workers <= 1 || dim < kMinParallelDim) {
    reduce_range(0, dim);
    return;
  }
  std::size_t chunk = (dim + workers - 1) / workers;
  chunk = (chunk + ops::kChunkAlign - 1) / ops::kChunkAlign * ops::kChunkAlign;
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min(dim, w * chunk);
    const std::size_t end = std::min(dim, begin + chunk);
    if (begin >= end) break;
    futures.push_back(
        pool->submit([&reduce_range, begin, end] { reduce_range(begin, end); }));
  }
  for (auto& f : futures) f.get();
}

/// The audit sweep every update passes before an aggregator sees it.
void audit_update(const ClientUpdate& u, std::size_t round) {
  const std::string context = "round " + std::to_string(round) + " client " +
                              std::to_string(u.client_id) + " update weights";
  check::assert_all_finite(u.weights, context.c_str());
  FEDCLUST_CHECK(std::isfinite(u.train_loss),
                 context << ": non-finite train loss " << u.train_loss);
}

}  // namespace

Federation::Federation(nn::Model template_model,
                       std::vector<ClientData> clients,
                       FederationConfig config)
    : Federation(std::move(template_model),
                 std::make_shared<EagerFleet>(std::move(clients)), config) {}

Federation::Federation(nn::Model template_model,
                       std::shared_ptr<ClientSource> source,
                       FederationConfig config)
    : template_(std::move(template_model)),
      source_(std::move(source)),
      config_(config),
      model_size_(template_.num_weights()),
      initial_weights_(template_.flat_weights()),
      fault_plan_(config.faults, config.seed),
      quarantine_(config.robust.validate.max_strikes),
      pool_(config.threads),
      kernel_pool_(config.kernel_threads > 0
                       ? std::make_unique<ThreadPool>(config.kernel_threads)
                       : nullptr),
      model_pool_(template_, kernel_pool_.get()) {
  FEDCLUST_REQUIRE(source_ != nullptr, "federation needs a client source");
  FEDCLUST_REQUIRE(source_->num_clients() > 0,
                   "federation needs at least one client");
  FEDCLUST_REQUIRE(model_size_ > 0, "template model has no parameters");
  FEDCLUST_REQUIRE(config_.participation > 0.0 && config_.participation <= 1.0,
                   "participation must be in (0, 1]");
  FEDCLUST_REQUIRE(config_.eval_every > 0, "eval_every must be positive");
  // Metadata sweep only — never materializes a shard, so this stays cheap
  // even for a million-client virtual fleet.
  for (std::size_t i = 0; i < source_->num_clients(); ++i) {
    FEDCLUST_REQUIRE(source_->train_size(i) > 0,
                     "client " << i << " has no training data");
  }
  if (config_.drift.enabled) {
    // The class count comes from one materialized shard (drift rotates
    // labels mod classes); only paid when drift is actually on.
    const std::size_t classes = source_->get(0)->train.spec().classes;
    drift_plan_ = std::make_shared<const robust::DriftPlan>(
        config_.drift, config_.seed, source_->num_clients(), classes);
    drift_fleet_ = std::make_shared<DriftFleet>(source_, drift_plan_);
    source_ = drift_fleet_;
  }
  if (config_.network.enabled) {
    const std::uint64_t net_seed =
        config_.network.seed != 0 ? config_.network.seed : config_.seed;
    net_ = std::make_unique<net::NetworkSimulator>(
        config_.network, source_->num_clients(), net_seed);
  }
  if (config_.compression.enabled) {
    up_codec_ = compress::make_codec(config_.compression.upload,
                                     config_.compression.topk_frac);
    down_codec_ = compress::make_codec(config_.compression.download,
                                       config_.compression.topk_frac);
    layout_.reserve(template_.slices().size());
    for (const auto& slice : template_.slices()) {
      layout_.push_back(slice.size);
    }
    // Codec-aware robust-rule guard: a top-k sparse frame decodes to the
    // reference everywhere outside its kept coordinates, so coordinate-
    // median order statistics over such updates are dominated by
    // reference-filled values — the statistic is biased TOWARD the
    // broadcast instead of toward the honest majority. Norm-clip keeps
    // its semantics (it clips the whole delta, dense or sparse), so fall
    // back to it rather than silently computing a biased statistic.
    // Trimmed mean is NOT guarded anymore: aggregate_weighted dispatches
    // it to robust::sparse_trimmed_mean, which trims per coordinate over
    // the updates that actually shipped that coordinate.
    if (config_.compression.upload == compress::CodecKind::kTopK &&
        config_.robust.rule == robust::AggregationRule::kCoordinateMedian) {
      LOG_WARN("top-k upload codec with "
               << robust::to_string(config_.robust.rule)
               << " biases coordinate order statistics toward the reference; "
                  "falling back to norm_clip");
      config_.robust.rule = robust::AggregationRule::kNormClip;
    }
  }
}

std::uint64_t Federation::encoded_payload_bytes(
    const compress::UpdateCodec& codec, std::size_t num_floats) const {
  const std::size_t reps = num_floats / model_size_;
  if (reps <= 1) return codec.encoded_bytes(num_floats, layout_);
  // Multi-model payload (IFCA's k-model broadcast): the model layout
  // repeats, so every model gets its own per-tensor scales.
  std::vector<std::size_t> repeated;
  repeated.reserve(layout_.size() * reps);
  for (std::size_t r = 0; r < reps; ++r) {
    repeated.insert(repeated.end(), layout_.begin(), layout_.end());
  }
  return codec.encoded_bytes(num_floats, repeated);
}

std::uint64_t Federation::download_wire_bytes(std::size_t num_floats) const {
  if (down_codec_ != nullptr && codec_applies(num_floats)) {
    const std::uint64_t enc = encoded_payload_bytes(*down_codec_, num_floats);
    return net_ ? net::wire_bytes_encoded(enc) : enc;
  }
  return wire_bytes(num_floats);
}

std::uint64_t Federation::upload_wire_bytes(std::size_t num_floats) const {
  if (up_codec_ != nullptr && codec_applies(num_floats)) {
    const std::uint64_t enc = encoded_payload_bytes(*up_codec_, num_floats);
    return net_ ? net::wire_bytes_encoded(enc) : enc;
  }
  return wire_bytes(num_floats);
}

std::uint64_t Federation::codec_download_op_bytes(std::size_t num_floats) const {
  return down_codec_ != nullptr && codec_applies(num_floats)
             ? net::wire_bytes_encoded(
                   encoded_payload_bytes(*down_codec_, num_floats))
             : 0;
}

std::uint64_t Federation::codec_upload_op_bytes(std::size_t num_floats) const {
  return up_codec_ != nullptr && codec_applies(num_floats)
             ? net::wire_bytes_encoded(
                   encoded_payload_bytes(*up_codec_, num_floats))
             : 0;
}

std::vector<float> Federation::download_roundtrip(
    std::span<const float> server_weights) const {
  if (down_codec_ == nullptr) return {};
  FEDCLUST_REQUIRE(server_weights.size() == model_size_,
                   "download_roundtrip expects one whole model");
  std::vector<float> out(server_weights.size());
  compress::roundtrip(*down_codec_, server_weights, {}, layout_, out);
  return out;
}

void Federation::reset_comm() {
  comm_.reset();
  if (net_) net_->reset();
  // A fresh run starts with a clean strike ledger — algorithms executed
  // back-to-back on one federation must not inherit quarantines.
  quarantine_ = robust::Quarantine(config_.robust.validate.max_strikes);
  // ... nor the drift clock: the scenario replays from round 0.
  if (drift_plan_ != nullptr) {
    drift_round_ = 0;
    drift_primed_ = false;
    drift_fleet_->set_round(0);
  }
}

void Federation::simulate_network_round(std::size_t round,
                                        const std::vector<net::ClientOp>& ops,
                                        bool reliable) {
  if (net_) net_->run_round(round, ops, reliable);
}

std::shared_ptr<const ClientData> Federation::client_data(
    std::size_t i) const {
  FEDCLUST_REQUIRE(i < source_->num_clients(), "client id out of range");
  return source_->get(i);
}

std::size_t Federation::client_train_size(std::size_t i) const {
  FEDCLUST_REQUIRE(i < source_->num_clients(), "client id out of range");
  return source_->train_size(i);
}

Rng Federation::client_rng(std::size_t client, std::size_t round) const {
  // Key the stream by both ids so no (client, round) pair collides.
  return Rng(config_.seed).split(0x10000 + client).split(round);
}

Rng Federation::round_rng(std::size_t round) const {
  return Rng(config_.seed).split(0x20000).split(round);
}

std::vector<std::size_t> Federation::sample_clients(std::size_t round) const {
  const std::size_t fleet = source_->num_clients();
  const std::size_t want = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             config_.participation * static_cast<double>(fleet))));
  std::vector<std::size_t> ids;
  if (want >= fleet) {
    ids.resize(fleet);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  } else {
    Rng rng = round_rng(round);
    ids = rng.sample_without_replacement(fleet, want);
    std::sort(ids.begin(), ids.end());
  }
  // The server no longer solicits quarantined clients. Sampling draws
  // first so honest clients' selection is unperturbed by exclusions.
  if (config_.robust.validate.enabled) {
    std::erase_if(ids,
                  [&](std::size_t c) { return quarantine_.quarantined(c); });
  }
  // Departed slots drop out of sampling the same way — drawn first, then
  // erased, so active clients' draws are unperturbed by churn.
  if (drift_plan_ != nullptr) {
    std::erase_if(
        ids, [&](std::size_t c) { return !drift_plan_->active(round, c); });
  }
  return ids;
}

void Federation::drift_advance(std::size_t round) {
  if (drift_plan_ == nullptr) return;
  if (drift_primed_ && round <= drift_round_) return;
  // Newcomers taking over slots in (previous, round] start with a clean
  // quarantine ledger — strikes belong to the departed client, not the
  // slot.
  const std::size_t from = drift_primed_ ? drift_round_ + 1 : 0;
  for (std::size_t r = from; r <= round; ++r) {
    for (const std::size_t slot : drift_plan_->arrivals_at(r)) {
      quarantine_.clear(slot);
    }
  }
  drift_round_ = round;
  drift_primed_ = true;
  drift_fleet_->set_round(round);
}

void Federation::drift_resume(std::size_t next_round) {
  if (drift_plan_ == nullptr) return;
  drift_round_ = next_round == 0 ? 0 : next_round - 1;
  drift_primed_ = true;
  drift_fleet_->set_round(drift_round_);
}

bool Federation::client_active(std::size_t round, std::size_t client) const {
  return drift_plan_ == nullptr || drift_plan_->active(round, client);
}

bool Federation::client_fails(std::size_t client, std::size_t round) const {
  if (config_.dropout <= 0.0) return false;
  // Independent stream so failures don't perturb training randomness.
  Rng rng = Rng(config_.seed).split(0x30000 + client).split(round);
  return rng.bernoulli(config_.dropout);
}

std::vector<std::size_t> Federation::round_survivors(
    const std::vector<std::size_t>& clients, std::size_t round,
    const LocalTrainConfig& local, bool allow_failures,
    const NetPayloads* net_payloads, std::size_t fault_attempt) {
  // The server never solicits quarantined clients, even on explicit
  // lists (formation re-solicitation goes through here too). Departed
  // drift slots are filtered the same way — a defensive second gate
  // behind sample_clients, since drivers may pass explicit lists.
  std::vector<std::size_t> solicited;
  solicited.reserve(clients.size());
  for (const std::size_t cid : clients) {
    if (config_.robust.validate.enabled && quarantine_.quarantined(cid)) {
      continue;
    }
    if (drift_plan_ != nullptr && !drift_plan_->active(round, cid)) continue;
    solicited.push_back(cid);
  }

  // Fault fate per client — functional over (round, client, attempt), so
  // identical across thread counts. kCrash applies even to reliable
  // rounds (a crashed client cannot answer a formation solicitation);
  // dropout churn remains gated on allow_failures as before.
  const auto fate = [&](std::size_t cid) {
    return config_.faults.enabled
               ? fault_plan_.decide(round, cid, fault_attempt)
               : robust::FaultKind::kNone;
  };

  // Decide churn up front so dropped clients cost no training time.
  std::vector<std::size_t> survivors;
  survivors.reserve(solicited.size());
  for (const std::size_t cid : solicited) {
    if (fate(cid) == robust::FaultKind::kCrash) continue;
    if (!allow_failures || !client_fails(cid, round)) {
      survivors.push_back(cid);
    }
  }

  // With the simulated network on, the round's network fate (drops,
  // retries, stragglers past the deadline) is decided before any
  // training runs: arrival times never depend on real compute, so late
  // or lost clients can simply be skipped. The simulation itself runs
  // single-threaded on the caller and every draw is keyed by
  // (seed, round, client, attempt) — thread count cannot perturb it.
  if (net_ != nullptr) {
    NetPayloads payloads{model_size_, model_size_,
                         net::MessageKind::kModelUpdate};
    if (net_payloads != nullptr) payloads = *net_payloads;
    if (payloads.download_floats > 0 || payloads.upload_floats > 0) {
      std::vector<net::ClientOp> ops;
      ops.reserve(solicited.size());
      for (const std::size_t cid : solicited) {
        FEDCLUST_REQUIRE(cid < source_->num_clients(),
                         "client id out of range");
        const bool churned =
            (allow_failures && client_fails(cid, round)) ||
            fate(cid) == robust::FaultKind::kCrash;
        ops.push_back(net::ClientOp{
            .client = cid,
            .download_floats = payloads.download_floats,
            .upload_floats = payloads.upload_floats,
            .num_samples = source_->train_size(cid),
            .epochs = local.epochs,
            .churned = churned,
            .upload_kind = payloads.upload_kind,
            .download_bytes = codec_download_op_bytes(payloads.download_floats),
            .upload_bytes = codec_upload_op_bytes(payloads.upload_floats)});
      }
      const net::RoundReport report =
          net_->run_round(round, ops, /*reliable=*/!allow_failures);
      std::vector<std::size_t> accepted;
      accepted.reserve(report.accepted);
      for (std::size_t i = 0; i < report.arrivals.size(); ++i) {
        const net::Arrival& a = report.arrivals[i];
        if (a.delivered && !a.late) accepted.push_back(solicited[i]);
      }
      survivors = std::move(accepted);
    }
  }
  return survivors;
}

Federation::Cohort Federation::solicit(
    const std::vector<std::size_t>& clients, std::size_t round,
    const std::function<std::span<const float>(std::size_t)>&
        start_weights_for,
    const LocalTrainConfig* config_override, bool allow_failures,
    const NetPayloads* net_payloads, std::size_t fault_attempt) {
  Cohort cohort;
  cohort.local = config_override != nullptr ? *config_override : config_.local;
  if (config_.audit) cohort.local.audit = true;
  cohort.fault_attempt = fault_attempt;

  // Every training round advances the drift clock (monotone no-op once
  // a driver already advanced it for newcomer admission).
  drift_advance(round);

  const std::vector<std::size_t> survivors = round_survivors(
      clients, round, cohort.local, allow_failures, net_payloads,
      fault_attempt);

  // Codec transport applies only to whole-model transfers this round
  // actually makes: the download leg when the broadcast is one or more
  // full models, the upload leg when the update payload is the full model
  // (sub-model side channels like FedClust's formation slice ship raw).
  NetPayloads payloads{model_size_, model_size_,
                       net::MessageKind::kModelUpdate};
  if (net_payloads != nullptr) payloads = *net_payloads;
  cohort.transport =
      up_codec_ != nullptr && payloads.upload_floats == model_size_;
  cohort.meter_rejected_floats = payloads.upload_floats;

  std::vector<TrainJob>& jobs = cohort.jobs;
  jobs.reserve(survivors.size());
  for (const std::size_t cid : survivors) {
    jobs.push_back(TrainJob{cid, round, start_weights_for(cid)});
  }
  if (down_codec_ != nullptr && codec_applies(payloads.download_floats)) {
    // Clients train from decode(encode(broadcast)), encoded with an empty
    // reference (a broadcast carries absolute weights, not a delta).
    // Keyed by span data pointer: each distinct cluster/global model is
    // round-tripped once per cohort.
    // (A decoded model's buffer stays put when `decoded` grows.)
    std::vector<const float*> keys;
    for (TrainJob& job : jobs) {
      FEDCLUST_CHECK(job.start.size() == model_size_,
                     "download codec expects whole-model broadcasts, got "
                         << job.start.size() << " floats");
      const auto it = std::find(keys.begin(), keys.end(), job.start.data());
      const auto k = static_cast<std::size_t>(it - keys.begin());
      if (it == keys.end()) {
        keys.push_back(job.start.data());
        compress::roundtrip(*down_codec_, job.start, {}, layout_,
                            cohort.decoded.emplace_back(model_size_));
      }
      job.start = cohort.decoded[k];
    }
  }
  return cohort;
}

ClientUpdate Federation::train_one(const TrainJob& job,
                                   const LocalTrainConfig& local,
                                   std::size_t fault_attempt) const {
  const std::size_t cid = job.client;
  FEDCLUST_REQUIRE(cid < source_->num_clients(), "client id out of range");
  const robust::FaultKind kind =
      config_.faults.enabled ? fault_plan_.decide(job.round, cid, fault_attempt)
                             : robust::FaultKind::kNone;
  // A stale replay trains from the run's initial weights — the client
  // never saw (or ignored) the current broadcast.
  const std::span<const float> start =
      kind == robust::FaultKind::kStaleReplay
          ? std::span<const float>(initial_weights_)
          : job.start;
  // Materialize the shard for exactly the duration of this client's
  // local work; the shared_ptr keeps it alive under cache eviction.
  const std::shared_ptr<const ClientData> data = source_->get(cid);
  ModelPool::Lease lease = model_pool_.acquire();
  nn::Model& model = *lease;
  model.set_flat_weights(start);
  const float loss =
      train_local(model, data->train, local, client_rng(cid, job.round));
  std::vector<float> weights = model.flat_weights();
  robust::apply_payload_fault(kind, config_.faults, start, weights,
                              fault_plan_.payload_rng(job.round, cid));
  return ClientUpdate{cid, std::move(weights), data->train.size(), loss};
}

void Federation::run_stage(const Cohort& cohort, bool longest_first,
                           const Sink& sink) {
  const std::size_t n = cohort.jobs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (longest_first) {
    // Dir(α) shard sizes are uneven, and starting the long clients early
    // keeps the tail short (ties by slot).
    std::vector<std::size_t> sizes(n);
    for (std::size_t k = 0; k < n; ++k) {
      sizes[k] = source_->train_size(cohort.jobs[k].client);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return sizes[a] > sizes[b];
                     });
  }
  const bool screened = config_.robust.validate.enabled;
  std::mutex mutex;
  std::size_t first_failure = n;
  std::exception_ptr error;
  pool_.parallel_for(0, n, [&](std::size_t k) {
    const std::size_t slot = order[k];
    try {
      if (sink.admit) sink.admit(slot);
      const TrainJob& job = cohort.jobs[slot];
      ClientUpdate u = train_one(job, cohort.local, cohort.fault_attempt);
      // Without server-side screening the upload leg happens right here:
      // the aggregator only ever sees decode(encode(update)), audited.
      // With screening on, screen() runs both over the gathered cohort.
      if (!screened) {
        if (cohort.transport) {
          std::vector<float> rt(u.weights.size());
          compress::roundtrip(*up_codec_, u.weights, job.start, layout_, rt);
          u.weights = std::move(rt);
        }
        if (config_.audit) audit_update(u, job.round);
      }
      sink.take(slot, std::move(u));
    } catch (...) {
      {
        std::lock_guard lock(mutex);
        if (slot < first_failure) {
          first_failure = slot;
          error = std::current_exception();
        }
      }
      if (sink.failed) sink.failed(slot);
    }
  });
  if (error) std::rethrow_exception(error);
}

std::vector<ClientUpdate> Federation::gather(const Cohort& cohort) {
  std::vector<ClientUpdate> updates(cohort.jobs.size());
  run_stage(cohort, /*longest_first=*/true,
            {.take = [&](std::size_t slot, ClientUpdate&& u) {
              updates[slot] = std::move(u);
            }});
  return updates;
}

std::vector<std::uint8_t> Federation::screen(
    const Cohort& cohort, std::vector<ClientUpdate>& updates) {
  const std::size_t n = updates.size();
  std::vector<std::uint8_t> accepted(n, 1);
  if (n == 0 || !config_.robust.validate.enabled) return accepted;
  // Every update is validated against the weights the server actually
  // served its client.
  std::vector<std::span<const float>> starts;
  std::vector<std::span<const float>> payloads;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    starts.push_back(cohort.jobs[i].start);
    payloads.emplace_back(updates[i].weights);
    ids.push_back(updates[i].client_id);
  }
  std::vector<robust::Verdict> verdicts;
  std::vector<std::vector<float>> decoded;
  if (cohort.transport) {
    // Decode-then-screen: each client's frame is validated against the
    // codec envelope first (failures strike as kCodecEnvelope), then the
    // decoded floats run the unchanged shape/finite/norm pipeline.
    std::vector<std::vector<std::uint8_t>> frames(n);
    pool_.parallel_for(0, n, [&](std::size_t i) {
      frames[i] = up_codec_->encode(updates[i].weights, starts[i], layout_);
    });
    const std::vector<std::span<const std::uint8_t>> frame_spans(
        frames.begin(), frames.end());
    verdicts = robust::screen_encoded_updates(
        frame_spans, starts, ids, model_size_, *up_codec_, layout_,
        config_.robust.validate, &decoded);
  } else {
    verdicts = robust::screen_updates(payloads, starts, ids, model_size_,
                                      config_.robust.validate);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (verdicts[i].accepted()) {
      // The aggregator keeps what survived the wire, not the raw client
      // weights.
      if (cohort.transport) updates[i].weights = std::move(decoded[i]);
      continue;
    }
    accepted[i] = 0;
    // The rejected bytes did cross the wire (skipped when the caller
    // opened no metering round, e.g. direct train_clients tests).
    if (cohort.meter_rejected_floats > 0 && comm_.round_count() > 0) {
      meter_upload(verdicts[i].client, cohort.meter_rejected_floats);
    }
    quarantine_.strike(verdicts[i].client);
  }
  if (config_.audit) {
    for (std::size_t i = 0; i < n; ++i) {
      if (accepted[i] != 0) audit_update(updates[i], cohort.jobs[i].round);
    }
  }
  return accepted;
}

Federation::ScreenedBatch Federation::train_dispatched(
    std::vector<TrainJob> jobs, const LocalTrainConfig* config_override) {
  Cohort cohort;
  cohort.jobs = std::move(jobs);
  cohort.local = config_override != nullptr ? *config_override : config_.local;
  if (config_.audit) cohort.local.audit = true;
  cohort.transport = up_codec_ != nullptr;
  ScreenedBatch out;
  out.updates = gather(cohort);
  out.accepted = screen(cohort, out.updates);
  return out;
}

std::vector<ClientUpdate> Federation::train_clients(
    const std::vector<std::size_t>& clients, std::size_t round,
    const std::function<std::span<const float>(std::size_t)>&
        start_weights_for,
    const LocalTrainConfig* config_override, bool allow_failures,
    const NetPayloads* net_payloads, std::size_t fault_attempt) {
  const Cohort cohort =
      solicit(clients, round, start_weights_for, config_override,
              allow_failures, net_payloads, fault_attempt);
  std::vector<ClientUpdate> updates = gather(cohort);
  if (!config_.robust.validate.enabled) return updates;
  const std::vector<std::uint8_t> accepted = screen(cohort, updates);
  std::vector<ClientUpdate> kept;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (accepted[i] != 0) kept.push_back(std::move(updates[i]));
  }
  return kept;
}

std::vector<std::size_t> Federation::train_clients_into(
    const std::vector<std::size_t>& clients, std::size_t round,
    const std::function<std::span<const float>(std::size_t)>&
        start_weights_for,
    const UpdateSink& sink, const LocalTrainConfig* config_override,
    bool allow_failures, const NetPayloads* net_payloads,
    std::size_t fault_attempt) {
  const Cohort cohort =
      solicit(clients, round, start_weights_for, config_override,
              allow_failures, net_payloads, fault_attempt);
  if (!config_.robust.validate.enabled) {
    run_stage(cohort, /*longest_first=*/true, {.take = sink});
  } else {
    // Screening needs the whole cohort at once (cohort-median norm
    // envelopes).
    std::vector<ClientUpdate> updates = gather(cohort);
    const std::vector<std::uint8_t> accepted = screen(cohort, updates);
    for (std::size_t slot = 0; slot < updates.size(); ++slot) {
      if (accepted[slot] != 0) sink(slot, std::move(updates[slot]));
    }
  }
  std::vector<std::size_t> survivors;
  survivors.reserve(cohort.jobs.size());
  for (const TrainJob& job : cohort.jobs) survivors.push_back(job.client);
  return survivors;
}

Federation::FoldResult Federation::train_clients_folded(
    const std::vector<std::size_t>& clients, std::size_t round,
    const std::function<std::span<const float>(std::size_t)>&
        start_weights_for,
    const net::EdgeTopology& topology, const LocalTrainConfig* config_override,
    const NetPayloads* net_payloads) {
  FoldResult out;

  // Robust rules and server-side screening both need the whole cohort's
  // updates at once — gather at root (see the header's memory note).
  if (config_.robust.rule != robust::AggregationRule::kWeightedMean ||
      config_.robust.validate.enabled) {
    std::vector<ClientUpdate> updates =
        train_clients(clients, round, start_weights_for, config_override,
                      /*allow_failures=*/true, net_payloads);
    out.gathered = true;
    if (updates.empty()) return out;
    double loss_sum = 0.0;
    out.contributors.reserve(updates.size());
    for (const ClientUpdate& u : updates) {
      out.contributors.push_back(u.client_id);
      loss_sum += u.train_loss;
    }
    out.mean_train_loss = loss_sum / static_cast<double>(updates.size());
    out.weights = aggregate(updates);
    return out;
  }

  const Cohort stage =
      solicit(clients, round, start_weights_for, config_override,
              /*allow_failures=*/true, net_payloads, /*fault_attempt=*/0);
  const std::size_t cohort = stage.jobs.size();
  out.contributors.reserve(cohort);
  for (const TrainJob& job : stage.jobs) out.contributors.push_back(job.client);
  if (cohort == 0) return out;

  // FedAvg coefficients over the WHOLE cohort, from the cheap train_size
  // metadata — value-identical to aggregation_coefficients over the flat
  // update list (ClientUpdate::num_samples is the same train size).
  std::vector<double> coeff(cohort);
  double total = 0.0;
  for (std::size_t i = 0; i < cohort; ++i) {
    coeff[i] = static_cast<double>(source_->train_size(out.contributors[i]));
    FEDCLUST_REQUIRE(coeff[i] > 0.0, "update with zero samples");
    total += coeff[i];
  }
  for (double& c : coeff) c /= total;

  // The fold sink folds every update into ONE shared double accumulator
  // in ascending slot order — the edge tree's fold order, since edges own
  // contiguous ascending slot ranges. A runner starts slot s only while
  // s < folded + window, so resident updates are O(window × model);
  // whichever runner finishes a slot while nobody else is folding folds
  // every contiguous ready slot. Per element, the fold executes the exact
  // operation sequence of the one-shot weighted_accumulate kernel (fold
  // boundaries only park the accumulator in memory, and a full-range call
  // equals the kChunkAlign-chunked one), so ANY edge count and ANY worker
  // count reproduce flat aggregation bit-for-bit. The fold runs inside a
  // pool_ runner and must never submit to pool_: runners blocked on the
  // window would never pick the work up.
  topology.clamped_edges(cohort);  // validates num_edges
  const std::size_t window = std::max<std::size_t>(4 * pool_.size(), 8);
  std::vector<ClientUpdate> ring(window);
  std::vector<char> ready(window, 0);
  std::vector<const float*> srcs(window);  // the folder's scratch
  std::vector<double> acc(model_size_, 0.0);
  const ops::KernelTable* kp = &ops::kernels();
  double loss_sum = 0.0;
  std::mutex mutex;
  std::condition_variable advanced;
  std::size_t folded = 0;
  bool folding = false;
  // Lowest slot whose runner threw; cohort while none has.
  std::size_t first_failure = cohort;

  const auto admit = [&](std::size_t s) {
    std::unique_lock lock(mutex);
    advanced.wait(lock, [&] {
      return s < folded + window || first_failure < cohort;
    });
    // Slots are claimed in ascending order and a started slot lies
    // inside the window, so every slot below a failure has started and
    // runs to completion. Slots above it are abandoned.
    FEDCLUST_CHECK(s < first_failure, "fold abandoned slot "
                                          << s << " after slot "
                                          << first_failure << " failed");
  };
  const auto take = [&](std::size_t s, ClientUpdate&& u) {
    std::unique_lock lock(mutex);
    ring[s % window] = std::move(u);
    ready[s % window] = 1;
    if (folding) return;  // the active folder will pick this slot up
    folding = true;
    while (folded < cohort && ready[folded % window] != 0) {
      const std::size_t base = folded;
      std::size_t k = 0;
      while (k < window && base + k < cohort &&
             ready[(base + k) % window] != 0) {
        ++k;
      }
      // Entries [base, base + k) are the folder's alone until `folded`
      // advances: runners only write slots that are not ready yet.
      lock.unlock();
      for (std::size_t j = 0; j < k; ++j) {
        const ClientUpdate& ready_update = ring[(base + j) % window];
        srcs[j] = ready_update.weights.data();
        loss_sum += ready_update.train_loss;
      }
      kp->weighted_accumulate_partial(srcs.data(), coeff.data() + base, k,
                                      acc.data(), 0, model_size_);
      for (std::size_t j = 0; j < k; ++j) {
        ring[(base + j) % window] = ClientUpdate{};
      }
      lock.lock();
      for (std::size_t j = 0; j < k; ++j) ready[(base + j) % window] = 0;
      folded = base + k;
      advanced.notify_all();
    }
    folding = false;
  };
  const auto failed = [&](std::size_t s) {
    {
      std::lock_guard lock(mutex);
      first_failure = std::min(first_failure, s);
    }
    advanced.notify_all();
  };
  run_stage(stage, /*longest_first=*/false,
            {.take = take, .admit = admit, .failed = failed});
  FEDCLUST_CHECK(folded == cohort, "fold stopped at slot " << folded << " of "
                                                           << cohort);
  out.mean_train_loss = loss_sum / static_cast<double>(cohort);

  // Finalize: the double→float cast is the same IEEE round-to-nearest
  // the one-shot kernel's narrow/cast performs.
  out.weights.resize(model_size_);
  for (std::size_t i = 0; i < model_size_; ++i) {
    out.weights[i] = static_cast<float>(acc[i]);
  }
  if (config_.audit) {
    check::assert_all_finite(out.weights, "folded aggregation output");
  }
  return out;
}

EvalResult Federation::evaluate_client(std::size_t client,
                                       std::span<const float> weights) const {
  const std::shared_ptr<const ClientData> data = client_data(client);
  FEDCLUST_REQUIRE(!data->test.empty(),
                   "client " << client << " has no test data");
  ModelPool::Lease lease = model_pool_.acquire();
  lease->set_flat_weights(weights);
  return evaluate(*lease, data->test);
}

double Federation::client_train_loss(std::size_t client,
                                     std::span<const float> weights) const {
  const std::shared_ptr<const ClientData> data = client_data(client);
  ModelPool::Lease lease = model_pool_.acquire();
  lease->set_flat_weights(weights);
  return evaluate(*lease, data->train).loss;
}

AccuracySummary Federation::evaluate_personalized(
    const std::function<std::span<const float>(std::size_t)>& weights_for)
    const {
  AccuracySummary out;
  const std::size_t n = source_->num_clients();
  // Departed slots (drift only) score NaN and are excluded from the
  // mean/std, so a static baseline's degradation under drift is
  // attributable to the drift itself, never to ghost evaluations of
  // clients that left. Without drift every client is alive.
  out.per_client.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::size_t> alive;
  alive.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (client_active(drift_round_, i)) alive.push_back(i);
  }
  if (alive.empty()) return out;
  pool_.parallel_for(0, alive.size(), [&](std::size_t a) {
    out.per_client[alive[a]] =
        evaluate_client(alive[a], weights_for(alive[a])).accuracy;
  });
  double sum = 0.0;
  for (const std::size_t i : alive) sum += out.per_client[i];
  out.mean = sum / static_cast<double>(alive.size());
  double var = 0.0;
  for (const std::size_t i : alive) {
    var += (out.per_client[i] - out.mean) * (out.per_client[i] - out.mean);
  }
  out.std = std::sqrt(var / static_cast<double>(alive.size()));
  return out;
}

AccuracySummary Federation::evaluate_cohort(
    const std::vector<std::size_t>& clients,
    const std::function<std::span<const float>(std::size_t)>& weights_for)
    const {
  AccuracySummary out;
  if (clients.empty()) return out;
  std::vector<double> accs(clients.size());
  pool_.parallel_for(0, clients.size(), [&](std::size_t i) {
    accs[i] = evaluate_client(clients[i], weights_for(clients[i])).accuracy;
  });
  StreamingMoments moments;
  for (const double a : accs) moments.add(a);
  out.mean = moments.mean();
  out.std = moments.std();
  return out;
}

std::vector<float> weighted_average(const std::vector<ClientUpdate>& updates,
                                    ThreadPool* pool) {
  // Guard before touching updates.front(): averaging nothing is a caller
  // bug (e.g. aggregating a round in which every client dropped out or
  // straggled past the deadline) and must fail loudly, not read past the
  // end of an empty vector.
  FEDCLUST_REQUIRE(!updates.empty(),
                   "weighted_average over zero updates — no client update "
                   "survived the round; callers must skip aggregation for "
                   "empty rounds");
  return weighted_average_with(updates, aggregation_coefficients(updates),
                               pool);
}

std::vector<float> weighted_average_with(
    const std::vector<ClientUpdate>& updates,
    const std::vector<double>& coefficients, ThreadPool* pool) {
  FEDCLUST_REQUIRE(!updates.empty(),
                   "weighted_average over zero updates — no client update "
                   "survived the round; callers must skip aggregation for "
                   "empty rounds");
  FEDCLUST_REQUIRE(coefficients.size() == updates.size(),
                   "one mixing coefficient per update");
  const std::size_t dim = updates.front().weights.size();
  const std::size_t n = updates.size();
  for (const ClientUpdate& u : updates) {
    FEDCLUST_REQUIRE(u.weights.size() == dim,
                     "update size mismatch in weighted_average");
  }
  const std::vector<double>& coeff = coefficients;

  // Fused single pass through the dispatched weighted_accumulate kernel:
  // each output element is reduced across updates in double and written
  // once — no dim-sized double temporary, one sweep over every update's
  // memory.
  std::vector<float> out(dim);
  std::vector<const float*> srcs(n);
  for (std::size_t u = 0; u < n; ++u) srcs[u] = updates[u].weights.data();
  const ops::KernelTable* kp = &ops::kernels();
  chunked_reduce(dim, pool, [&](std::size_t begin, std::size_t end) {
    kp->weighted_accumulate(srcs.data(), coeff.data(), n, out.data(), begin,
                            end);
  });
  return out;
}

std::vector<double> aggregation_coefficients(
    const std::vector<ClientUpdate>& updates) {
  double total = 0.0;
  for (const ClientUpdate& u : updates) {
    FEDCLUST_REQUIRE(u.num_samples > 0, "update with zero samples");
    total += static_cast<double>(u.num_samples);
  }
  std::vector<double> coeff(updates.size());
  for (std::size_t u = 0; u < updates.size(); ++u) {
    coeff[u] = static_cast<double>(updates[u].num_samples) / total;
  }
  return coeff;
}

std::vector<float> Federation::aggregate(
    const std::vector<ClientUpdate>& updates,
    std::span<const float> reference) {
  return aggregate_weighted(updates, aggregation_coefficients(updates),
                            reference);
}

std::vector<float> Federation::aggregate_weighted(
    const std::vector<ClientUpdate>& updates,
    const std::vector<double>& coefficients, std::span<const float> reference) {
  FEDCLUST_REQUIRE(coefficients.size() == updates.size(),
                   "one mixing coefficient per update");
  // Sign-SGD pairs with its own aggregation rule: a decoded sign update
  // is reference ± per-tensor scale, and averaging those directly wastes
  // the 1-bit structure. Per coordinate the clients VOTE — the result
  // moves from the reference in the majority direction by the weighted
  // mean magnitude. The vote needs the reference as the clients saw it
  // (decoded through the download codec), so both sides of the ± agree
  // bit-for-bit. Only the plain weighted-mean rule is replaced; robust
  // rules keep their order-statistic semantics over the decoded values.
  if (config_.robust.rule == robust::AggregationRule::kWeightedMean &&
      up_codec_ != nullptr &&
      up_codec_->kind() == compress::CodecKind::kSignSgd &&
      !reference.empty() && !updates.empty()) {
    FEDCLUST_REQUIRE(reference.size() == model_size_,
                     "sign-SGD vote needs the full pre-round model");
    for (const ClientUpdate& u : updates) {
      FEDCLUST_REQUIRE(u.weights.size() == model_size_,
                       "update size mismatch in sign-SGD vote");
    }
    const std::vector<float> ref_eff = download_roundtrip(reference);
    const std::vector<double>& coeff = coefficients;
    std::vector<const float*> srcs(updates.size());
    for (std::size_t u = 0; u < updates.size(); ++u) {
      srcs[u] = updates[u].weights.data();
    }
    std::vector<float> out(model_size_);
    compress::signsgd_majority_vote(srcs.data(), coeff.data(), updates.size(),
                                    ref_eff.data(), out.data(), model_size_);
    if (config_.audit) {
      // The vote's output anchors on the reference, which need not lie
      // in the updates' convex envelope — check finiteness only (like
      // the robust rules below).
      check::assert_all_finite(out, "sign-SGD majority-vote output");
    }
    return out;
  }
  if (config_.robust.rule == robust::AggregationRule::kWeightedMean) {
    std::vector<float> out =
        weighted_average_with(updates, coefficients, aggregation_pool());
    if (config_.audit) {
      std::vector<std::span<const float>> inputs;
      inputs.reserve(updates.size());
      for (const ClientUpdate& u : updates) inputs.emplace_back(u.weights);
      check::audit_aggregation(inputs, coefficients, out);
    }
    return out;
  }
  std::vector<std::span<const float>> inputs;
  inputs.reserve(updates.size());
  for (const ClientUpdate& u : updates) inputs.emplace_back(u.weights);
  // Sparse-aware trimmed mean over top-k frames: a decoded top-k update
  // equals the broadcast in every coordinate it did not ship, so the
  // trim runs per coordinate over the updates that actually shipped it
  // (anything else drowns the order statistic in reference copies — the
  // bias the old norm-clip fallback guarded against). The fill must be
  // the broadcast AS THE CLIENTS SAW IT, i.e. download-codec decoded,
  // so "not shipped" detection is bit-exact.
  if (config_.robust.rule == robust::AggregationRule::kTrimmedMean &&
      up_codec_ != nullptr &&
      up_codec_->kind() == compress::CodecKind::kTopK &&
      !reference.empty() && !updates.empty()) {
    FEDCLUST_REQUIRE(reference.size() == model_size_,
                     "sparse trimmed mean needs the full pre-round model");
    bool whole_models = true;
    for (const ClientUpdate& u : updates) {
      whole_models = whole_models && u.weights.size() == model_size_;
    }
    if (whole_models) {
      const std::vector<float> ref_rt = download_roundtrip(reference);
      const std::span<const float> fill =
          ref_rt.empty() ? reference : std::span<const float>(ref_rt);
      std::vector<float> out = robust::sparse_trimmed_mean(
          inputs, config_.robust.trim_frac, fill, aggregation_pool());
      if (config_.audit) {
        check::assert_all_finite(out, "sparse trimmed-mean output");
      }
      return out;
    }
  }
  std::vector<float> out = robust::robust_aggregate(
      inputs, coefficients, config_.robust.rule, config_.robust, reference,
      aggregation_pool());
  if (config_.audit) {
    // The convex-envelope audit is specific to the weighted mean (a
    // norm-clipped output lives in the hull of {reference, inputs}, not
    // of the inputs alone); for robust rules check finiteness only.
    check::assert_all_finite(out, "robust aggregation output");
  }
  return out;
}

}  // namespace fedclust::fl
