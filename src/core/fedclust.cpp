#include "core/fedclust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "algorithms/common.hpp"
#include "check/audit.hpp"
#include "cluster/distance.hpp"
#include "cluster/dynamic.hpp"
#include "cluster/metrics.hpp"
#include "cluster/routing.hpp"
#include "fl/async.hpp"
#include "fl/trainer.hpp"

namespace fedclust::core {
namespace {

/// Newcomer-warmup stream tag: keeps the arrival's solo training draw
/// independent of the same (client, round) training-round stream.
constexpr std::uint64_t kNewcomerWarmupTag = 0x7d10;

/// Minimum fraction of clients whose formation upload must arrive (after
/// the retry waves) for clustering to proceed.
constexpr double kFormationQuorum = 0.5;

/// The local-training config of FedClust's warmup (formation, retries,
/// re-anchors and newcomers): `local` with warmup_epochs when set.
fl::LocalTrainConfig warmup_config(const fl::LocalTrainConfig& local,
                                   const FedClustConfig& config) {
  fl::LocalTrainConfig warmup = local;
  if (config.warmup_epochs > 0) warmup.epochs = config.warmup_epochs;
  return warmup;
}

/// Mean per-client accuracy by cluster; NaN for clusters with no finite
/// member entry (empty, or every member departed — their per_client
/// slots are NaN under a drift plan), which freezes the detector window.
std::vector<double> cluster_accuracies(const fl::AccuracySummary& acc,
                                       const std::vector<std::size_t>& labels,
                                       std::size_t clusters) {
  std::vector<double> sum(clusters, 0.0);
  std::vector<std::size_t> count(clusters, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const double a = i < acc.per_client.size()
                         ? acc.per_client[i]
                         : std::numeric_limits<double>::quiet_NaN();
    if (!std::isfinite(a)) continue;
    sum[labels[i]] += a;
    ++count[labels[i]];
  }
  std::vector<double> out(clusters,
                          std::numeric_limits<double>::quiet_NaN());
  for (std::size_t c = 0; c < clusters; ++c) {
    if (count[c] > 0) out[c] = sum[c] / static_cast<double>(count[c]);
  }
  return out;
}

/// One partial-report exchange — the formation round, a retry wave, or a
/// drift re-anchor: `clients` train the warmup from the common
/// initialization as a reliable round (full model down, partial slice
/// up). The slice sink keeps extract_slices of each update and drops the
/// full model on the runner that trained it.
struct PartialReports {
  /// Floats in one partial upload.
  std::size_t slice_floats = 0;
  /// Clients whose upload arrived (and passed screening), slot order.
  std::vector<std::size_t> arrived;
  /// One per arrived client; EMPTY when the slice is non-finite (with
  /// validation off, corrupted uploads reach the server unscreened).
  std::vector<std::vector<float>> partials;
};

PartialReports solicit_partials(fl::Federation& federation,
                                const FedClustConfig& config,
                                const std::vector<std::size_t>& clients,
                                std::size_t round, std::size_t fault_attempt) {
  const nn::Model& tmpl = federation.template_model();
  const std::vector<nn::ParamSlice> slices =
      resolve_partial_slices(tmpl, config.partial_spec);
  const std::vector<float> init_weights = tmpl.flat_weights();
  const fl::LocalTrainConfig warmup =
      warmup_config(federation.config().local, config);
  PartialReports out;
  out.slice_floats = slices_numel(slices);
  const fl::NetPayloads payloads{federation.model_size(), out.slice_floats,
                                 net::MessageKind::kPartialUpdate};

  // Survivors are a subsequence of `clients`, so slots index these.
  std::vector<std::vector<float>> slot_partials(clients.size());
  std::vector<char> got(clients.size(), 0);
  const std::vector<std::size_t> survivors = federation.train_clients_into(
      clients, round,
      [&](std::size_t) { return std::span<const float>(init_weights); },
      [&](std::size_t slot, fl::ClientUpdate&& u) {
        std::vector<float> partial = extract_slices(u.weights, slices);
        if (!std::all_of(partial.begin(), partial.end(),
                         [](float x) { return std::isfinite(x); })) {
          partial.clear();
        }
        slot_partials[slot] = std::move(partial);
        got[slot] = 1;
      },
      &warmup, /*allow_failures=*/false, &payloads, fault_attempt);
  for (std::size_t slot = 0; slot < survivors.size(); ++slot) {
    if (got[slot] == 0) continue;
    out.arrived.push_back(survivors[slot]);
    out.partials.push_back(std::move(slot_partials[slot]));
  }
  return out;
}

}  // namespace

ClusteringOutcome FedClust::form_clusters(fl::Federation& federation,
                                          std::size_t round) const {
  // The paper's formation round covers all available clients, so the
  // warmup is exempt from dropout injection — and under the simulated
  // network it runs as a reliable round that waits for every upload.
  // With fault injection, crashed clients still go missing even here.
  const std::size_t n = federation.num_clients();
  std::vector<std::size_t> everyone(n);
  for (std::size_t i = 0; i < n; ++i) everyone[i] = i;

  ClusteringOutcome out;
  out.partial_weights.resize(n);
  std::vector<bool> reported(n, false);
  // A non-finite partial would poison the proximity matrix, so it counts
  // as missing and the retry waves ask again.
  const auto record = [&](PartialReports reports) {
    for (std::size_t i = 0; i < reports.arrived.size(); ++i) {
      if (reports.partials[i].empty()) continue;
      out.partial_weights[reports.arrived[i]] = std::move(reports.partials[i]);
      reported[reports.arrived[i]] = true;
    }
  };
  record(solicit_partials(federation, config_, everyone, round, 0));

  // Bounded re-solicitation of the missing uploads. Each wave carries a
  // fresh fault attempt, so a transiently crashed client can answer the
  // retry; quarantined clients are not asked again.
  for (std::size_t attempt = 1; attempt <= config_.formation_retries;
       ++attempt) {
    std::vector<std::size_t> missing;
    for (std::size_t c = 0; c < n; ++c) {
      const bool quarantined = federation.config().robust.validate.enabled &&
                               federation.quarantine().quarantined(c);
      if (!reported[c] && !quarantined) missing.push_back(c);
    }
    if (missing.empty()) break;
    out.resolicited.push_back(missing);
    record(solicit_partials(federation, config_, missing, round, attempt));
  }

  for (std::size_t c = 0; c < n; ++c) {
    (reported[c] ? out.reporters : out.deferred).push_back(c);
  }

  // Quorum gate: clustering over a sliver of the population would bake
  // an unrepresentative partition in for the whole run.
  const std::size_t quorum = static_cast<std::size_t>(
      std::ceil(kFormationQuorum * static_cast<double>(n)));
  if (out.reporters.size() < quorum) {
    FEDCLUST_CHECK(
        config_.formation_fallback !=
            FedClustConfig::FormationFallback::kAbort,
        "formation quorum failed: " << out.reporters.size() << " of " << n
                                    << " clients reported (quorum "
                                    << quorum << ")");
    out.labels.assign(n, 0);
    out.fallback_global = true;
    if (federation.config().audit) {
      check::audit_cluster_partition(out.labels);
    }
    return out;
  }

  // Server side: proximity matrix -> HC -> cut, over the reporters.
  std::vector<std::vector<float>> reporter_partials;
  reporter_partials.reserve(out.reporters.size());
  for (const std::size_t c : out.reporters) {
    reporter_partials.push_back(out.partial_weights[c]);
  }
  // The aggregation pool is idle between the warmup leg and aggregation.
  out.proximity = cluster::pairwise_euclidean(reporter_partials,
                                              federation.aggregation_pool());
  out.dendrogram = cluster::agglomerative_cluster(out.proximity,
                                                  config_.linkage);

  const CutPolicy policy = config_.threshold > 0.0
                               ? CutPolicy::kFixedThreshold
                               : config_.cut_policy;
  switch (policy) {
    case CutPolicy::kFixedThreshold:
      out.threshold = config_.threshold;
      out.labels = out.dendrogram.cut_threshold(out.threshold);
      break;
    case CutPolicy::kRelativeThreshold: {
      double mean_distance = 0.0;
      std::size_t pairs = 0;
      for (std::size_t i = 0; i < out.proximity.rows(); ++i) {
        for (std::size_t j = i + 1; j < out.proximity.cols(); ++j) {
          mean_distance += out.proximity(i, j);
          ++pairs;
        }
      }
      if (pairs > 0) mean_distance /= static_cast<double>(pairs);
      out.threshold = config_.rel_factor * mean_distance;
      out.labels = out.dendrogram.cut_threshold(out.threshold);
      break;
    }
    case CutPolicy::kLargestGap:
      out.threshold =
          cluster::suggest_threshold(out.dendrogram, config_.min_gap_ratio);
      out.labels = out.dendrogram.cut_threshold(out.threshold);
      break;
    case CutPolicy::kSilhouette: {
      const std::size_t m = out.reporters.size();
      const std::size_t k_max = std::max<std::size_t>(
          2, config_.max_clusters > 0 ? config_.max_clusters : m / 2);
      double best_score = -2.0;
      std::vector<std::size_t> best = std::vector<std::size_t>(m, 0);
      std::size_t best_k = 1;
      for (std::size_t k = 2; k <= std::min(k_max, m); ++k) {
        std::vector<std::size_t> labels = out.dendrogram.cut_k(k);
        const double score = cluster::silhouette(out.proximity, labels);
        if (score > best_score) {
          best_score = score;
          best = std::move(labels);
          best_k = k;
        }
      }
      if (best_score < config_.min_silhouette) {
        // No clustering structure at any k: keep one cluster.
        out.labels.assign(m, 0);
        out.threshold = out.dendrogram.merges.empty()
                            ? 0.0
                            : out.dendrogram.merges.back().distance + 1.0;
      } else {
        out.labels = std::move(best);
        // Report the equivalent distance cut for interpretability: the
        // distance of the first merge the cut rejected.
        const std::size_t applied = m - best_k;
        out.threshold = applied < out.dendrogram.merges.size()
                            ? out.dendrogram.merges[applied].distance
                            : out.dendrogram.merges.back().distance + 1.0;
      }
      break;
    }
  }
  // The cut above labeled the reporters (proximity rows); expand to a
  // per-client vector. Deferred clients hold a provisional 0 until the
  // newcomer path places them (formation_phase does this in round 0).
  if (out.reporters.size() != n) {
    std::vector<std::size_t> full(n, 0);
    for (std::size_t i = 0; i < out.reporters.size(); ++i) {
      full[out.reporters[i]] = out.labels[i];
    }
    out.labels = std::move(full);
  }

  if (federation.config().audit) {
    // The one-shot formation is FedClust's load-bearing step: verify the
    // uploaded slices are finite, the Lance–Williams merges never invert
    // (what the largest-gap threshold scan assumes), and the cut produced
    // a genuine partition with consecutive cluster ids.
    for (std::size_t c = 0; c < out.partial_weights.size(); ++c) {
      if (out.partial_weights[c].empty()) continue;  // deferred client
      const std::string context =
          "formation partial weights of client " + std::to_string(c);
      check::assert_all_finite(out.partial_weights[c], context.c_str());
    }
    check::audit_dendrogram_monotone(out.dendrogram);
    check::audit_cluster_partition(out.labels);
  }
  return out;
}

ClusteringOutcome FedClust::formation_phase(
    fl::Federation& federation, fl::RunResult& result,
    std::vector<std::size_t>& labels_out,
    std::vector<std::vector<float>>& cluster_weights_out) const {
  // Round 0: one-shot weight-driven cluster formation. Every client
  // downloads the full initial model and uploads only its partial slice;
  // a re-solicited client downloads once more per retry wave.
  federation.comm().begin_round(0);
  ClusteringOutcome outcome = form_clusters(federation, /*round=*/0);
  const std::size_t partial_floats = slices_numel(resolve_partial_slices(
      federation.template_model(), config_.partial_spec));
  for (std::size_t c = 0; c < federation.num_clients(); ++c) {
    federation.meter_download(c, federation.model_size());
  }
  for (const auto& wave : outcome.resolicited) {
    for (const std::size_t c : wave) {
      federation.meter_download(c, federation.model_size());
    }
  }
  for (const std::size_t c : outcome.reporters) {
    federation.meter_upload(c, partial_floats);
  }

  std::vector<std::size_t>& labels = labels_out;
  labels = outcome.labels;
  std::vector<std::vector<float>>& cluster_weights = cluster_weights_out;
  cluster_weights.assign(cluster::num_clusters(labels),
                         federation.template_model().flat_weights());

  if (config_.warm_start_classifier) {
    // The server already holds every member's round-0 partial upload;
    // seed each cluster's slice with the member mean. Zero extra bytes.
    const std::vector<nn::ParamSlice> slices = resolve_partial_slices(
        federation.template_model(), config_.partial_spec);
    const auto members = cluster::members_by_cluster(labels);
    for (std::size_t c = 0; c < members.size(); ++c) {
      // Deferred clients have no stored upload yet — average the
      // contributors that do.
      std::vector<std::size_t> contributors;
      for (const std::size_t m : members[c]) {
        if (!outcome.partial_weights[m].empty()) contributors.push_back(m);
      }
      if (contributors.empty()) continue;
      const std::size_t dim = outcome.partial_weights[contributors[0]].size();
      std::vector<double> mean(dim, 0.0);
      for (const std::size_t m : contributors) {
        for (std::size_t i = 0; i < dim; ++i) {
          mean[i] += outcome.partial_weights[m][i];
        }
      }
      const double inv = 1.0 / static_cast<double>(contributors.size());
      std::size_t cursor = 0;
      for (const nn::ParamSlice& s : slices) {
        for (std::size_t i = 0; i < s.size; ++i, ++cursor) {
          cluster_weights[c][s.offset + i] =
              static_cast<float>(mean[cursor] * inv);
        }
      }
    }
  }

  // Deferred clients (no formation upload after every retry) join via
  // the newcomer path: solo warmup, nearest cluster by stored partials.
  // This still happens inside round 0, so its traffic is metered — and
  // simulated — before the round-0 snapshot.
  for (const std::size_t cid : outcome.deferred) {
    labels[cid] = admit_newcomer(federation, outcome, cid, /*round=*/0,
                                 federation.client_rng(cid, 0));
  }

  {
    const fl::AccuracySummary acc =
        algorithms::evaluate_clustered(federation, labels, cluster_weights);
    result.rounds.push_back(fl::make_round_metrics(
        0, acc, 0.0, federation, cluster_weights.size(),
        check::weights_fingerprint(cluster_weights)));
  }
  return outcome;
}

std::size_t FedClust::begin(fl::Federation& federation,
                            fl::RunResult& result) {
  detector_.reset();
  recoveries_ = 0;
  outcome_ = formation_phase(federation, result, labels_, cluster_weights_);
  if (config_.dynamic.enabled) {
    detector_.emplace(config_.dynamic.detector);
    detector_->start(cluster_weights_.size());
  }
  if (config_.checkpoint_every > 0) {
    robust::save_checkpoint(
        fl::capture_checkpoint(federation, *this, result, /*next_round=*/1),
        config_.checkpoint_path);
  }
  return 1;
}

double FedClust::sync_round(fl::Federation& federation, std::size_t round) {
  if (federation.drift_enabled()) admit_churn(federation, round);
  // FedAvg within each cluster.
  return algorithms::per_cluster_fedavg_round(federation, round, labels_,
                                              cluster_weights_);
}

void FedClust::after_round(fl::Federation& federation, std::size_t round,
                           bool last, const fl::AccuracySummary* acc,
                           fl::RunResult& result) {
  if (acc != nullptr && detector_) {
    fl::RoundMetrics& metrics = result.rounds.back();
    const std::vector<fl::DriftAlarm> alarms = detector_->observe(
        round, cluster_accuracies(*acc, labels_, cluster_weights_.size()));
    metrics.drift_score = detector_->last_score();
    metrics.drift_alarms = alarms.size();
    const bool budget_left = config_.dynamic.max_recoveries == 0 ||
                             recoveries_ < config_.dynamic.max_recoveries;
    if (!alarms.empty() && !last && budget_left) {
      const std::size_t applied = recover_clusters(federation, round, alarms);
      metrics.reclusters = applied;
      if (applied > 0) {
        ++recoveries_;
        // The partition changed after the eval: fingerprint and cluster
        // count should describe what round+1 trains on.
        metrics.num_clusters = cluster_weights_.size();
        metrics.weights_fp = fingerprint();
      }
    }
  }
  if (config_.checkpoint_every > 0 && round % config_.checkpoint_every == 0) {
    robust::save_checkpoint(
        fl::capture_checkpoint(federation, *this, result, round + 1),
        config_.checkpoint_path);
  }
}

fl::AccuracySummary FedClust::evaluate(
    const fl::Federation& federation) const {
  return algorithms::evaluate_clustered(federation, labels_, cluster_weights_);
}

std::uint64_t FedClust::fingerprint() const {
  return check::weights_fingerprint(cluster_weights_);
}

void FedClust::finish(fl::RunResult& result) {
  result.cluster_labels = labels_;
  result.cluster_weights = cluster_weights_;
}

std::span<const float> FedClust::cluster_model(std::size_t cluster) const {
  return std::span<const float>(cluster_weights_.at(cluster));
}

void FedClust::set_cluster_model(std::size_t cluster,
                                 std::vector<float> weights) {
  cluster_weights_.at(cluster) = std::move(weights);
}

void FedClust::admit_churn(fl::Federation& federation, std::size_t round) {
  ClusteringOutcome& outcome = *outcome_;
  const robust::DriftPlan* plan = federation.drift_plan();
  // Sets the drifted fleet's round and forgives the arrivals' inherited
  // quarantine strikes before anything samples or trains this round.
  federation.drift_advance(round);

  for (const std::size_t slot : plan->departures_at(round)) {
    // The stored anchor belongs to the departed tenant; the slot keeps
    // its label (it simply stops being sampled) but must never pull a
    // future newcomer toward the old tenant's weights.
    outcome.partial_weights[slot].clear();
    if (detector_) {
      detector_->note(round, fl::DriftLogKind::kDeparture, slot);
    }
  }

  for (const std::size_t slot : plan->arrivals_at(round)) {
    // The paper's real-time accommodation, the deferred path of
    // formation_phase.
    labels_[slot] = admit_newcomer(
        federation, outcome, slot, round,
        federation.client_rng(slot, round).split(kNewcomerWarmupTag));
    if (detector_) {
      detector_->note(round, fl::DriftLogKind::kArrival, slot,
                      static_cast<double>(labels_[slot]));
    }
  }
}

std::size_t FedClust::recover_clusters(
    fl::Federation& federation, std::size_t round,
    const std::vector<fl::DriftAlarm>& alarms) {
  ClusteringOutcome& outcome = *outcome_;
  std::vector<std::size_t> flagged;
  flagged.reserve(alarms.size());
  for (const fl::DriftAlarm& a : alarms) flagged.push_back(a.cluster);
  std::sort(flagged.begin(), flagged.end());

  // Fresh anchors: the flagged clusters' active members re-run the
  // formation protocol (full model down, partial up) as a reliable
  // exchange, so the repair sees the drifted distributions — the stored
  // round-0 anchors are exactly what drift invalidated.
  std::vector<std::size_t> members;
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    if (!std::binary_search(flagged.begin(), flagged.end(), labels_[c])) {
      continue;
    }
    if (!federation.client_active(round, c)) continue;
    members.push_back(c);
  }
  if (members.empty()) {
    // Nothing to re-anchor (everyone departed); the detector still
    // resets so the dead cluster cannot re-alarm every eval.
    detector_->reset(round, cluster_weights_.size());
    return 0;
  }

  // fault_attempt 64 keeps the re-anchor fault draws independent of the
  // round's training draws and of any formation retry wave (0..retries).
  PartialReports reports =
      solicit_partials(federation, config_, members, round, 64);
  for (const std::size_t c : members) {
    federation.meter_download(c, federation.model_size());
  }
  for (std::size_t i = 0; i < reports.arrived.size(); ++i) {
    federation.meter_upload(reports.arrived[i], reports.slice_floats);
    // A non-finite (corrupted) re-anchor keeps the stored one — worse
    // than fresh but never poisonous.
    if (!reports.partials[i].empty()) {
      outcome.partial_weights[reports.arrived[i]] =
          std::move(reports.partials[i]);
    }
  }

  cluster::ReclusterConfig rc;
  rc.linkage = config_.linkage;
  rc.threshold = outcome.threshold;
  rc.reassign_margin = config_.dynamic.reassign_margin;
  std::vector<std::uint8_t> active(labels_.size(), 1);
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    active[c] = federation.client_active(round, c) ? 1 : 0;
  }
  const cluster::ReclusterResult repaired =
      cluster::recluster(outcome.partial_weights, labels_, flagged, active, rc);

  // Server models follow the parent mapping: kept clusters keep their
  // model, splits start from the flagged parent's, drained ones vanish.
  std::vector<std::vector<float>> next(repaired.parent.size());
  for (std::size_t j = 0; j < repaired.parent.size(); ++j) {
    next[j] = cluster_weights_[repaired.parent[j]];
  }
  cluster_weights_ = std::move(next);
  labels_ = repaired.labels;
  outcome.labels = labels_;
  if (federation.config().audit) {
    check::audit_cluster_partition(labels_);
  }
  detector_->reset(round, cluster_weights_.size());
  return 1;
}

void FedClust::save_state(robust::RunCheckpoint& checkpoint) const {
  checkpoint.labels.assign(labels_.begin(), labels_.end());
  checkpoint.cluster_weights = cluster_weights_;
  checkpoint.partial_weights = outcome_->partial_weights;
  if (detector_) {
    checkpoint.drift = detector_->snapshot(recoveries_);
    checkpoint.drift.threshold = outcome_->threshold;
  }
}

void FedClust::restore_state(fl::Federation& federation,
                             const robust::RunCheckpoint& checkpoint) {
  labels_.assign(checkpoint.labels.begin(), checkpoint.labels.end());
  cluster_weights_ = checkpoint.cluster_weights;
  outcome_.emplace();
  outcome_->partial_weights = checkpoint.partial_weights;
  outcome_->labels = labels_;
  // Dynamic checkpoints carry the formation run's applied cut; static
  // ones never split, so the config value (possibly 0) is fine.
  outcome_->threshold =
      checkpoint.drift.present ? checkpoint.drift.threshold : config_.threshold;

  detector_.reset();
  recoveries_ = 0;
  if (config_.dynamic.enabled) {
    detector_.emplace(config_.dynamic.detector);
    if (checkpoint.drift.present) {
      detector_->restore(checkpoint.drift);
      recoveries_ = static_cast<std::size_t>(checkpoint.drift.recoveries);
    } else {
      detector_->start(cluster_weights_.size());
    }
  }
  if (federation.drift_enabled()) {
    federation.drift_resume(checkpoint.next_round);
  }
}

fl::RunResult FedClust::resume(fl::Federation& federation,
                               const robust::RunCheckpoint& checkpoint,
                               std::size_t rounds) {
  return fl::resume_synchronized(federation, *this, checkpoint, rounds);
}

std::size_t FedClust::admit_newcomer(fl::Federation& federation,
                                     ClusteringOutcome& outcome,
                                     std::size_t slot, std::size_t round,
                                     Rng rng) const {
  // Solo warmup from the initial model (a reliable exchange — the
  // newcomer has no deadline to miss: full model down, partial up), then
  // nearest-cluster routing over the stored anchors.
  const std::size_t partial_floats = slices_numel(resolve_partial_slices(
      federation.template_model(), config_.partial_spec));
  const std::vector<net::ClientOp> ops{federation.client_op(
      slot,
      fl::NetPayloads{federation.model_size(), partial_floats,
                      net::MessageKind::kPartialUpdate},
      warmup_config(federation.config().local, config_).epochs,
      /*churned=*/false)};
  federation.simulate_network_round(round, ops, /*reliable=*/true);
  federation.meter_download(slot, federation.model_size());
  federation.meter_upload(slot, partial_floats);
  std::vector<float> partial;
  const std::size_t label = assign_newcomer(
      federation.template_model(), federation.client_data(slot)->train,
      federation.config().local, rng, outcome, &partial);
  outcome.partial_weights[slot] = std::move(partial);
  outcome.labels[slot] = label;
  return label;
}

std::size_t FedClust::assign_newcomer(
    const nn::Model& template_model, const data::Dataset& newcomer_train,
    const fl::LocalTrainConfig& local_config, Rng rng,
    const ClusteringOutcome& outcome, std::vector<float>* partial_out) const {
  FEDCLUST_REQUIRE(!outcome.labels.empty(),
                   "clustering outcome has no members");

  // The newcomer repeats the formation protocol solo: train from the
  // initial global model, extract the same partial slice.
  nn::Model model = template_model.clone();
  fl::train_local(model, newcomer_train, warmup_config(local_config, config_),
                  rng);

  const std::vector<nn::ParamSlice> slices =
      resolve_partial_slices(template_model, config_.partial_spec);
  const std::vector<float> partial =
      extract_slices(model.flat_weights(), slices);
  if (partial_out != nullptr) *partial_out = partial;

  // Nearest cluster by mean Euclidean distance to the stored member
  // uploads. The distance/argmin pair lives in cluster/routing so the
  // serving router applies bit-identical assignment semantics.
  const std::size_t k = cluster::num_clusters(outcome.labels);
  const std::vector<double> means = cluster::mean_cluster_distances(
      partial, outcome.partial_weights, outcome.labels, k);
  return cluster::nearest_cluster(means);
}

}  // namespace fedclust::core
