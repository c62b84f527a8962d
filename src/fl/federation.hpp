// The federated-learning simulation engine.
//
// A Federation owns the client population (private train/test splits),
// the model template every algorithm starts from, a thread pool that
// trains sampled clients in parallel, and the communication meter.
//
// Determinism: all randomness derives from config.seed through splittable
// streams keyed by (client, round), so results are bit-identical
// regardless of thread count or scheduling order.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "compress/codec.hpp"
#include "fl/comm.hpp"
#include "fl/fleet.hpp"
#include "fl/model_pool.hpp"
#include "fl/trainer.hpp"
#include "fl/types.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "nn/model.hpp"
#include "robust/aggregate.hpp"
#include "robust/drift.hpp"
#include "robust/fault.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust::fl {

class DriftFleet;

/// Engine-level configuration shared by all algorithms.
struct FederationConfig {
  LocalTrainConfig local{};
  /// Fraction of clients sampled each round (1.0 = full participation,
  /// the Table-I setting for 20 clients).
  double participation = 1.0;
  /// Worker threads for parallel client training; 0 = hardware default.
  std::size_t threads = 0;
  /// Worker threads for intra-model kernels (blocked-GEMM row splitting)
  /// — a separate pool lent to every trained/evaluated model. 0 disables
  /// kernel threading. Prefer `threads` (client-level parallelism) when
  /// many clients train per round; kernel threads pay off when few, large
  /// models train at a time. Deterministic either way: each kernel worker
  /// owns disjoint output rows and element-wise math is unchanged.
  std::size_t kernel_threads = 0;
  /// Failure injection: probability that a sampled client drops out of a
  /// round after being selected (device churn). The failed client's
  /// update simply never arrives; deterministic per (seed, client,
  /// round).
  double dropout = 0.0;
  std::uint64_t seed = 42;
  /// Evaluate (and record metrics) every this many rounds; the final
  /// round is always evaluated.
  std::size_t eval_every = 1;
  /// Simulated network (latency/bandwidth/stragglers/deadlines).
  /// Disabled by default: byte accounting and algorithm behaviour are
  /// then exactly the pre-network engine's.
  net::NetworkConfig network{};
  /// Runtime invariant auditing (src/check): finite-value sweeps over
  /// every client update and the local-training state, aggregation
  /// weight-conservation and convex-envelope checks, and CommMeter-vs-
  /// event-log byte parity at every evaluated round. Audits throw
  /// fedclust::Error on violation. Off by default — audited runs pay one
  /// extra sweep over each weight vector per round.
  bool audit = false;
  /// Update compression (src/compress): upload/download codecs applied
  /// to every full-model transfer — payload degradation is simulated
  /// (clients train from decode(encode(broadcast)), the server
  /// aggregates decode(encode(update))) and all byte accounting switches
  /// to encoded frame sizes. Disabled by default: no codec objects are
  /// constructed and the engine's code path, trajectories, and byte
  /// accounting are exactly the pre-compression engine's. Sub-model side
  /// channels (FedClust's formation slice, FedPer's base exchange, PACFL
  /// bases) always ship raw — codecs carry per-tensor scales over the
  /// full model layout, so partial payloads fall back to raw framing in
  /// both the transfer and its metering.
  compress::CompressionConfig compression{};
  /// Deterministic fault injection (client crashes, stale replays,
  /// corrupted uploads). Disabled by default. Note that injected
  /// non-finite corruption reaching the aggregator will — correctly —
  /// trip the `audit` finite sweep unless `robust.validate` screens it
  /// out first. Declared last: the member name shadows namespace
  /// `robust` for later declarations in this scope.
  robust::FaultConfig faults{};
  /// Deterministic distribution drift and churn (robust/drift.hpp):
  /// scheduled label rotation/shift, departures, newcomer cohorts. When
  /// enabled the engine wraps its client source in a DriftFleet, filters
  /// sampling and evaluation to active slots, and wipes a slot's
  /// quarantine strikes when a newcomer takes it over. Disabled by
  /// default: no plan is built and the engine is bit-identical to a
  /// drift-free build. Synchronous engine only (the async scheduler has
  /// no round clock to advance the fleet by).
  robust::DriftConfig drift{};
  /// Robust aggregation rule + server-side update validation/quarantine.
  /// Default = plain weighted mean, no validation: the engine is then
  /// bit-identical to the pre-robustness engine.
  robust::RobustConfig robust{};
};

/// Per-direction payload sizes, in float32 values, of one simulated
/// round trip. Algorithms that ship something other than a full model
/// each way (FedClust's partial upload, IFCA's k-model download, FedPer's
/// base-only exchange) pass this to train_clients. A zero/zero spec
/// means the step never touches the network (LocalOnly).
struct NetPayloads {
  std::size_t download_floats = 0;
  std::size_t upload_floats = 0;
  net::MessageKind upload_kind = net::MessageKind::kModelUpdate;
};

/// Mean/std of per-client accuracy — the paper's reported metric.
struct AccuracySummary {
  double mean = 0.0;
  double std = 0.0;
  std::vector<double> per_client;
};

class Federation {
 public:
  /// `template_model` must already have initialized parameters; every
  /// algorithm clones it so all methods start from identical weights.
  /// This overload wraps the vector in an EagerFleet — the classic fully
  /// resident population, behaviour unchanged.
  Federation(nn::Model template_model, std::vector<ClientData> clients,
             FederationConfig config);

  /// Virtualized population: `source` materializes shards on demand
  /// (e.g. a VirtualFleet regenerating them from the splittable RNG), so
  /// resident memory scales with the sampled cohort, not the fleet.
  Federation(nn::Model template_model, std::shared_ptr<ClientSource> source,
             FederationConfig config);

  std::size_t num_clients() const { return source_->num_clients(); }
  /// The client's train/test shard; may materialize lazily. The returned
  /// pointer keeps the shard alive — hold it across use.
  std::shared_ptr<const ClientData> client_data(std::size_t i) const;
  /// Local train-set size without materializing the shard (O(1)).
  std::size_t client_train_size(std::size_t i) const;
  const ClientSource& source() const { return *source_; }
  const FederationConfig& config() const { return config_; }
  CommMeter& comm() { return comm_; }
  const CommMeter& comm() const { return comm_; }

  /// The network simulator, or null when config().network.enabled is
  /// false.
  net::NetworkSimulator* network() { return net_.get(); }
  const net::NetworkSimulator* network() const { return net_.get(); }
  bool network_enabled() const { return net_ != nullptr; }
  /// Virtual seconds elapsed so far (0 when the network is disabled).
  double sim_time() const { return net_ ? net_->now() : 0.0; }

  /// RAW wire size of a `num_floats` payload: framed message bytes under
  /// the simulated network, bare float bytes otherwise. This is the
  /// codec-free framing — metering call sites go through
  /// download_wire_bytes / upload_wire_bytes, which fall back to this
  /// whenever no codec applies to the transfer.
  std::uint64_t wire_bytes(std::size_t num_floats) const {
    return net_ ? net::wire_bytes(num_floats)
                : CommMeter::float_bytes(num_floats);
  }

  /// Accountable bytes of one server -> client transfer of `num_floats`
  /// values: the download codec's encoded frame size when compression
  /// applies (num_floats is one or more whole models), raw framing
  /// otherwise. Under the simulated network the v3 codec header is
  /// included; without it the bare encoded payload is counted (the
  /// codec-frame analogue of historical bare float bytes — identity
  /// encodes to exactly num_floats * 4, keeping disabled-mode accounting
  /// bit-identical).
  std::uint64_t download_wire_bytes(std::size_t num_floats) const;
  /// Same for one client -> server transfer under the upload codec.
  std::uint64_t upload_wire_bytes(std::size_t num_floats) const;

  /// Meters one server -> client transfer of `num_floats` values. The
  /// client id is not recorded (the meter counts bytes, not clients); it
  /// stays in the signature so every call site names who is served.
  void meter_download(std::size_t /*client*/, std::size_t num_floats) {
    comm_.download(download_wire_bytes(num_floats));
  }
  /// Meters one client -> server transfer of `num_floats` values.
  void meter_upload(std::size_t /*client*/, std::size_t num_floats) {
    comm_.upload(upload_wire_bytes(num_floats));
  }

  /// Framed v3 byte size for a simulated ClientOp override: non-zero —
  /// net::wire_bytes_encoded(codec frame) — exactly when the codec
  /// applies to a `num_floats` transfer; 0 keeps the op on raw framing.
  /// Exposed so protocol drivers building their own ClientOps (FedClust's
  /// deferred-newcomer rounds) charge the same bytes the meter records.
  std::uint64_t codec_download_op_bytes(std::size_t num_floats) const;
  std::uint64_t codec_upload_op_bytes(std::size_t num_floats) const;

  /// True when config().compression.enabled constructed codecs.
  bool compression_enabled() const { return up_codec_ != nullptr; }
  const compress::UpdateCodec* upload_codec() const { return up_codec_.get(); }
  const compress::UpdateCodec* download_codec() const {
    return down_codec_.get();
  }
  /// Per-tensor segment sizes of one model (nn::Model::slices order).
  std::span<const std::size_t> codec_layout() const { return layout_; }

  /// The weights a client actually receives when the server sends
  /// `server_weights` (one whole model): decode(encode(w)) under the
  /// download codec. Returns an empty vector when compression is off —
  /// callers then keep using `server_weights` itself, zero-copy (IFCA's
  /// cluster-identity estimation goes through this so clients score the
  /// models they would really see).
  std::vector<float> download_roundtrip(
      std::span<const float> server_weights) const;

  /// Resets communication accounting, the network simulator's clock,
  /// log, and reports, the quarantine strike ledger, and the drift
  /// scenario's clock. run_synchronized and run_async call this at run
  /// entry.
  void reset_comm();

  /// Simulates a round the engine does not train (e.g. PACFL's formation,
  /// where clients upload subspace bases computed from raw data). No-op
  /// when the network is disabled.
  void simulate_network_round(std::size_t round,
                              const std::vector<net::ClientOp>& ops,
                              bool reliable = true);

  /// Deep copy of the common initial model.
  nn::Model make_model() const { return template_.clone(); }
  const nn::Model& template_model() const { return template_; }
  /// Learnable scalars per model (full update size on the wire).
  std::size_t model_size() const { return model_size_; }

  /// Independent stream for (client, round) — identical across runs.
  Rng client_rng(std::size_t client, std::size_t round) const;
  /// Independent stream for round-level decisions (client sampling).
  Rng round_rng(std::size_t round) const;

  /// Clients participating in `round` (sorted ids). With participation
  /// 1.0 this is everyone. Quarantined clients are excluded — the server
  /// stops soliciting them (identity when validation is off or no client
  /// has been quarantined).
  std::vector<std::size_t> sample_clients(std::size_t round) const;

  /// One client's training assignment: the round its RNG and fault draws
  /// are keyed by, and the broadcast it trains from as received (already
  /// download-codec decoded).
  struct TrainJob {
    std::size_t client = 0;
    std::size_t round = 0;
    std::span<const float> start;
  };

  /// Receives one update that passed a cohort's per-update stage, with its
  /// slot (its position among the round's survivors).
  using UpdateSink = std::function<void(std::size_t slot, ClientUpdate&&)>;

  /// Trains the listed clients in parallel, each starting from
  /// `start_weights_for(client_id)` (called once per surviving client on
  /// the caller's thread; the span must stay valid for the call).
  /// Returns updates in input order. Does NOT meter communication — the
  /// algorithm decides what actually crossed the wire (e.g. FedClust
  /// uploads only final-layer weights in round 0). Slots are claimed
  /// longest shard first, but results are slot-indexed and a failure
  /// rethrows the lowest failing slot's error (see run_stage).
  ///
  /// When config().dropout > 0 and `allow_failures` is true, each client
  /// independently drops out with that probability and its update is
  /// omitted from the result (so the result may be shorter than
  /// `clients`). Pass allow_failures = false for protocol steps that
  /// must hear from everyone (e.g. FedClust's formation round, which the
  /// paper runs over all available clients).
  ///
  /// With the network simulator enabled, the whole round trip (broadcast
  /// -> compute -> upload with drops/retries) is simulated first:
  /// clients whose upload misses the round's deadline or straggler
  /// cutoff, or is lost after all retries, are omitted from the result —
  /// and are never trained, since the outcome is known up front.
  /// `net_payloads` sizes the transfers (defaults to a full model each
  /// way); a formation step (allow_failures = false) is simulated as a
  /// reliable round that waits for everyone.
  /// With config().faults enabled, the fault plan is consulted per
  /// solicited client: crashed clients are dropped like churn, stale
  /// replays train from the run's initial weights, and corrupted uploads
  /// are mutated after training. With config().robust.validate enabled,
  /// the cohort is gathered and every arrived update is screened (shape /
  /// finite / norm envelope); rejections are dropped from the result,
  /// metered as received traffic, and charged as quarantine strikes.
  /// `fault_attempt` distinguishes re-solicitations of the same round
  /// (formation hardening) so their fault draws are independent.
  std::vector<ClientUpdate> train_clients(
      const std::vector<std::size_t>& clients, std::size_t round,
      const std::function<std::span<const float>(std::size_t)>&
          start_weights_for,
      const LocalTrainConfig* config_override = nullptr,
      bool allow_failures = true, const NetPayloads* net_payloads = nullptr,
      std::size_t fault_attempt = 0);

  /// train_clients that hands each kept update to `sink` and returns the
  /// survivors (slot -> client id). Without screening, `sink` runs on the
  /// pool runner that trained the slot, so a sink keeping only a slice
  /// holds full models just for the updates in flight. With validation
  /// on, the cohort is gathered and screened first and `sink` runs on the
  /// caller's thread in slot order.
  std::vector<std::size_t> train_clients_into(
      const std::vector<std::size_t>& clients, std::size_t round,
      const std::function<std::span<const float>(std::size_t)>&
          start_weights_for,
      const UpdateSink& sink, const LocalTrainConfig* config_override,
      bool allow_failures, const NetPayloads* net_payloads,
      std::size_t fault_attempt);

  /// Result of a trained-and-folded round (train_clients_folded).
  struct FoldResult {
    /// The aggregated weighted-mean model; empty when no update survived
    /// the round (callers keep the previous model, like the flat path).
    std::vector<float> weights;
    /// Clients whose updates were folded, in slot (ascending solicited)
    /// order.
    std::vector<std::size_t> contributors;
    /// Plain mean of the contributors' train losses.
    double mean_train_loss = 0.0;
    /// True when the robust-rule / validation fallback gathered all
    /// updates at the root instead of folding.
    bool gathered = false;
  };

  /// Cross-device round: trains the listed clients and folds their
  /// updates through a two-level edge-aggregator tree WITHOUT ever
  /// holding O(cohort) updates. The per-update stage runs over the
  /// survivor slots in ascending order; finished updates wait in a
  /// slot-indexed ring, and whichever runner finishes a slot while no
  /// other is folding folds every contiguous ready slot into one shared
  /// slot-ordered double accumulator (ops::weighted_accumulate_partial).
  /// Edges own contiguous ascending slot ranges, so slot order is the
  /// tree's fold order. Under the default kWeightedMean rule the result
  /// is bit-identical to train_clients + aggregate for ANY
  /// topology.num_edges and any worker count (every element sees the
  /// identical operation sequence). Churn, network fate, faults, codecs,
  /// audits, and metering behave exactly like train_clients
  /// (allow_failures = true), including which client a failure names.
  ///
  /// MEMORY NOTE: resident updates are bounded by the ring's window of
  /// max(4 × pool workers, 8) slots (16 at 4 workers): a runner starts
  /// slot s only while s < folded + window. train_clients_into with a
  /// slice-keeping sink (FedClust's formation) is bounded the same way,
  /// by the updates in flight. Robust rules (trimmed mean / median /
  /// norm-clip) and server-side validation need the full cohort's
  /// updates at once (per-coordinate order statistics, cohort-median
  /// norm envelopes); those configurations fall back to gather-at-root —
  /// O(cohort × model) server memory, flagged by FoldResult::gathered.
  FoldResult train_clients_folded(
      const std::vector<std::size_t>& clients, std::size_t round,
      const std::function<std::span<const float>(std::size_t)>&
          start_weights_for,
      const net::EdgeTopology& topology,
      const LocalTrainConfig* config_override = nullptr,
      const NetPayloads* net_payloads = nullptr);

  /// Whether a given client drops out of a given round under the
  /// configured dropout probability (deterministic).
  bool client_fails(std::size_t client, std::size_t round) const;

  /// Pool for intra-model kernel row-splitting (null when
  /// config().kernel_threads == 0). Lent to models this engine trains.
  ThreadPool* kernel_pool() const { return kernel_pool_.get(); }

  /// Pool usable for between-round server-side work (aggregation). Safe
  /// to borrow whenever no train_clients call is in flight.
  ThreadPool* aggregation_pool() const { return &pool_; }

  /// Aggregation seam every algorithm goes through. Under the default
  /// kWeightedMean rule this is weighted_average over the aggregation
  /// pool, plus — under config().audit — verification that the
  /// coefficients conserve mass and every output coordinate stays inside
  /// the inputs' convex envelope (check::audit_aggregation). Other rules
  /// dispatch to robust::robust_aggregate; `reference` is the pre-round
  /// model anchoring kNormClip deltas (ignored by the other rules, may
  /// be empty).
  std::vector<float> aggregate(const std::vector<ClientUpdate>& updates,
                               std::span<const float> reference = {});

  /// aggregate() with explicit mixing coefficients (must be normalized;
  /// one per update). The async engine passes staleness-discounted
  /// sample weights here; aggregate() itself routes through this with
  /// aggregation_coefficients(updates), so unit staleness is bit-identical
  /// to the synchronous rule by construction. Robust rules and the
  /// sign-SGD majority vote receive the same coefficients.
  std::vector<float> aggregate_weighted(
      const std::vector<ClientUpdate>& updates,
      const std::vector<double>& coefficients,
      std::span<const float> reference = {});

  /// Slot-aligned result of train_dispatched: every update trained, with
  /// per-slot screening verdicts (all-accepted when validation is off).
  struct ScreenedBatch {
    std::vector<ClientUpdate> updates;
    std::vector<std::uint8_t> accepted;
  };

  /// Trains the async engine's buffer flush through the same per-update
  /// stage as a synchronous cohort. Each job carries its dispatch sequence
  /// number as the round and the weights the client received at dispatch.
  /// The upload leg matches train_clients: the aggregator only ever sees
  /// decode(encode(update)), and with validation enabled every update is
  /// screened against its own broadcast and rejections are charged as
  /// quarantine strikes. Does NOT meter or simulate: the scheduler owns
  /// arrival fate and metered both legs at dispatch.
  ScreenedBatch train_dispatched(std::vector<TrainJob> jobs,
                                 const LocalTrainConfig* config_override);

  /// The run's drift plan, or null when config().drift is disabled.
  const robust::DriftPlan* drift_plan() const { return drift_plan_.get(); }
  bool drift_enabled() const { return drift_plan_ != nullptr; }

  /// Advances the drift clock to `round` (monotone; no-op when drift is
  /// off or the clock is already there). Applies the churn bookkeeping
  /// for every round crossed: newcomer slots get a clean quarantine
  /// ledger — strikes must never leak from a departed client to the
  /// newcomer reusing its slot. train_clients calls this at round entry;
  /// protocol drivers that need the fleet advanced earlier (newcomer
  /// admission before training) may call it themselves.
  void drift_advance(std::size_t round);

  /// Primes the drift clock after a checkpoint resume: positions the
  /// fleet at `next_round - 1` WITHOUT replaying churn bookkeeping (the
  /// restored quarantine ledger already reflects it).
  void drift_resume(std::size_t next_round);

  /// Whether `client`'s slot is active at `round` (always true with
  /// drift off; false between a departure and the slot's reuse).
  bool client_active(std::size_t round, std::size_t client) const;

  /// The run's fault-injection plan (inert unless config().faults is
  /// enabled).
  const robust::FaultPlan& fault_plan() const { return fault_plan_; }
  /// Server-side strike ledger (only fed when config().robust.validate
  /// is enabled).
  robust::Quarantine& quarantine() { return quarantine_; }
  const robust::Quarantine& quarantine() const { return quarantine_; }

  /// Loss/accuracy of a weight vector on one client's local test split.
  EvalResult evaluate_client(std::size_t client,
                             std::span<const float> weights) const;

  /// Mean loss of a weight vector on one client's TRAIN split (IFCA's
  /// cluster-identity estimation reads this).
  double client_train_loss(std::size_t client,
                           std::span<const float> weights) const;

  /// Per-client test accuracy (parallel over clients) where client i is
  /// evaluated with `weights_for(i)`; cluster methods pass their cluster
  /// model, global methods the single global model. O(fleet) memory and
  /// evaluation work — the classic small-federation path; fleet-scale
  /// drivers use evaluate_cohort.
  AccuracySummary evaluate_personalized(
      const std::function<std::span<const float>(std::size_t)>& weights_for)
      const;

  /// Accuracy mean/std over an explicit client subset via streaming
  /// (Welford) reduction — per_client stays empty, memory O(cohort) for
  /// the parallel scratch only.
  AccuracySummary evaluate_cohort(
      const std::vector<std::size_t>& clients,
      const std::function<std::span<const float>(std::size_t)>& weights_for)
      const;

  /// The model-clone pool recycling training/evaluation clones across
  /// rounds (diagnostics: created() is the engine's clone high-water).
  const ModelPool& model_pool() const { return model_pool_; }

 private:
  /// Shared solicitation pipeline of every synchronous cohort: quarantine
  /// filter → fault fate → churn → simulated network fate. Returns the
  /// clients whose updates will arrive, in ascending solicited order.
  std::vector<std::size_t> round_survivors(
      const std::vector<std::size_t>& clients, std::size_t round,
      const LocalTrainConfig& local, bool allow_failures,
      const NetPayloads* net_payloads, std::size_t fault_attempt);

  /// A solicited cohort, ready for the per-update stage.
  struct Cohort {
    /// The survivors' jobs, in slot (ascending solicited) order.
    std::vector<TrainJob> jobs;
    LocalTrainConfig local;
    std::size_t fault_attempt = 0;
    /// The upload codec carries these updates (whole-model uploads).
    bool transport = false;
    /// Upload size metered for a screened-out update; 0 when the caller
    /// metered it already (the async scheduler, at dispatch).
    std::size_t meter_rejected_floats = 0;
    /// Download-decoded broadcasts the jobs' start spans point into.
    std::vector<std::vector<float>> decoded;
  };

  /// Where the per-update stage delivers. `take` runs on pool runners,
  /// concurrently for distinct slots; `admit` runs before a slot trains
  /// and may block; `failed` runs after a slot threw.
  struct Sink {
    UpdateSink take{};
    std::function<void(std::size_t)> admit{};
    std::function<void(std::size_t)> failed{};
  };

  /// round_survivors plus the download leg: one job per arrived client.
  Cohort solicit(const std::vector<std::size_t>& clients, std::size_t round,
                 const std::function<std::span<const float>(std::size_t)>&
                     start_weights_for,
                 const LocalTrainConfig* config_override, bool allow_failures,
                 const NetPayloads* net_payloads, std::size_t fault_attempt);

  /// The per-update stage, written once: for every slot on the pool,
  /// train_one, then (screening off) the upload-codec round trip and the
  /// audit sweep, then sink.take. Rethrows the lowest failing slot's
  /// error whatever the claim order (longest shard first, or ascending).
  void run_stage(const Cohort& cohort, bool longest_first, const Sink& sink);

  /// run_stage into a slot-indexed vector, longest shard first.
  std::vector<ClientUpdate> gather(const Cohort& cohort);

  /// Server-side screening of a gathered cohort (all accepted when
  /// validation is off): decode-then-screen through the codec envelope
  /// when the upload codec applies, plain screening otherwise. Accepted
  /// updates keep what survived the wire and are audited; rejections are
  /// metered (see Cohort::meter_rejected_floats) and struck. Returns
  /// per-slot verdicts.
  std::vector<std::uint8_t> screen(const Cohort& cohort,
                                   std::vector<ClientUpdate>& updates);

  /// Trains one job (pooled clone, payload faults applied).
  ClientUpdate train_one(const TrainJob& job, const LocalTrainConfig& local,
                         std::size_t fault_attempt) const;

  /// Encoded payload bytes of `codec` for a num_floats transfer that
  /// codec_applies; repeats the model layout for multi-model payloads.
  std::uint64_t encoded_payload_bytes(const compress::UpdateCodec& codec,
                                      std::size_t num_floats) const;
  /// Whether a codec covers a transfer: one or more whole models.
  bool codec_applies(std::size_t num_floats) const {
    return num_floats > 0 && model_size_ > 0 && num_floats % model_size_ == 0;
  }

  nn::Model template_;
  std::shared_ptr<ClientSource> source_;
  FederationConfig config_;
  std::size_t model_size_ = 0;
  /// The template's flat weights — what a stale-replay fault trains from.
  std::vector<float> initial_weights_;
  robust::FaultPlan fault_plan_;
  robust::Quarantine quarantine_;
  /// Drift machinery (null/idle unless config.drift.enabled): the plan,
  /// the fleet decorator source_ points at, and the advanced-to round.
  std::shared_ptr<const robust::DriftPlan> drift_plan_;
  std::shared_ptr<DriftFleet> drift_fleet_;
  std::size_t drift_round_ = 0;
  bool drift_primed_ = false;
  /// Update codecs (null unless config.compression.enabled) and the
  /// per-tensor segment layout they quantize over.
  std::unique_ptr<compress::UpdateCodec> up_codec_;
  std::unique_ptr<compress::UpdateCodec> down_codec_;
  std::vector<std::size_t> layout_;
  mutable ThreadPool pool_;
  std::unique_ptr<ThreadPool> kernel_pool_;
  mutable ModelPool model_pool_;
  CommMeter comm_;
  std::unique_ptr<net::NetworkSimulator> net_;
};

/// Sample-count-weighted average of client weight vectors (FedAvg's
/// aggregation rule). All updates must have equal length. Single fused
/// pass: each output element is reduced in double across updates and
/// written once. With a pool, large models are chunked into contiguous
/// per-worker dimension ranges (deterministic — per-element math is
/// independent of the chunking).
std::vector<float> weighted_average(const std::vector<ClientUpdate>& updates,
                                    ThreadPool* pool = nullptr);

/// weighted_average with caller-supplied normalized coefficients (one per
/// update). The default entry point computes aggregation_coefficients and
/// forwards here, so passing those coefficients explicitly is
/// bit-identical — the seam the async engine's staleness-weighted flush
/// mixes through.
std::vector<float> weighted_average_with(
    const std::vector<ClientUpdate>& updates,
    const std::vector<double>& coefficients, ThreadPool* pool = nullptr);

/// The normalized per-update coefficients weighted_average applies
/// (num_samples / total). Exposed so the aggregation audit can verify
/// conservation against exactly what the reduction used.
std::vector<double> aggregation_coefficients(
    const std::vector<ClientUpdate>& updates);

}  // namespace fedclust::fl
