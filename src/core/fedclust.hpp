// FedClust — weight-driven one-shot clustered federated learning.
// This module implements the paper's contribution (§III):
//
//  1. the server broadcasts the initial global model to all clients;
//  2. clients train locally for a few epochs and upload ONLY the final
//     (classifier) layer's weights — a proxy for their underlying data
//     distribution (§II, Fig. 1);
//  3. the server builds the pairwise Euclidean proximity matrix of those
//     partial weights;
//  4. agglomerative hierarchical clustering with a distance-threshold cut
//     groups clients — no predefined cluster count;
//  5. from the next round on, each cluster runs FedAvg independently.
//
// Newcomers are accommodated in real time: a new client trains the same
// warmup locally and is assigned to the cluster whose members' stored
// partial weights are nearest on average (steps 1-3 for one client, no
// re-clustering).
#pragma once

#include <optional>

#include "cluster/hierarchical.hpp"
#include "core/partial_weights.hpp"
#include "fl/algorithm.hpp"
#include "fl/drift.hpp"
#include "robust/checkpoint.hpp"

namespace fedclust::core {

/// How the dendrogram is cut into flat clusters. The paper prescribes a
/// distance threshold but leaves its choice open; both automatic
/// policies below need no tuning.
enum class CutPolicy {
  /// Cut at rel_factor × (mean pairwise distance). Scale-invariant, so
  /// one factor works across datasets/models; at the default 0.9 the
  /// granularity tracks the accuracy-optimal clustering on Dirichlet
  /// label-skew populations. Default.
  kRelativeThreshold,
  /// Maximize the mean silhouette over k = 2..max_clusters; falls back
  /// to one cluster when even the best silhouette shows no structure.
  /// Favors the coarsest geometric structure — right for populations
  /// with a few crisp groups, too coarse for smooth Dirichlet skew.
  kSilhouette,
  /// Cut in the middle of the largest gap between consecutive merge
  /// distances. Crisper but degenerates to k=2 on smooth dendrograms.
  kLargestGap,
  /// Use FedClustConfig::threshold as a fixed distance cut.
  kFixedThreshold,
};

struct FedClustConfig {
  /// Local epochs of the warmup (cluster-formation) round; 0 = use the
  /// federation's configured local epochs.
  std::size_t warmup_epochs = 0;
  /// Which weights clients upload for clustering; see
  /// resolve_partial_slices for the accepted specs. Default: final layer.
  std::string partial_spec = "final";
  cluster::Linkage linkage = cluster::Linkage::kAverage;
  CutPolicy cut_policy = CutPolicy::kRelativeThreshold;
  /// Fixed distance cut; setting it > 0 implies kFixedThreshold.
  double threshold = 0.0;
  /// kRelativeThreshold: cut at this fraction of the mean pairwise
  /// distance.
  double rel_factor = 0.9;
  /// kLargestGap: required gap size relative to the mean merge step.
  double min_gap_ratio = 2.0;
  /// kSilhouette: candidate k ranges over [2, max_clusters];
  /// 0 = num_clients / 2.
  std::size_t max_clusters = 0;
  /// kSilhouette: below this best-silhouette value the population is
  /// considered unclusterable and kept as one cluster.
  double min_silhouette = 0.05;
  /// Extension beyond the paper: initialize each cluster model's
  /// uploaded slice with the mean of its members' round-0 uploads (the
  /// server already holds them), instead of the raw initialization.
  /// Costs no extra communication; ablated in bench/comm_cost.
  bool warm_start_classifier = false;

  // --- Formation-round fault tolerance -----------------------------------
  /// Re-solicitation waves for formation uploads that never arrived
  /// (client crashed, or its upload was quarantined). Each wave re-runs
  /// the warmup solicitation for the missing clients only, with an
  /// independent fault draw.
  std::size_t formation_retries = 2;
  /// Fewer than half of the clients reported after the retries: fall
  /// back to one global cluster (plain FedAvg over whoever is alive) or
  /// abort the run with fedclust::Error.
  enum class FormationFallback { kGlobalFedAvg, kAbort };
  FormationFallback formation_fallback = FormationFallback::kGlobalFedAvg;

  // --- Drift-robust dynamic clustering ------------------------------------
  /// FedClust-dynamic: watch per-cluster accuracy trajectories and repair
  /// the partition online when they drift (see fl/drift.hpp and
  /// cluster/dynamic.hpp). Off by default — the static paper algorithm is
  /// then bit-identical to before. Orthogonal to the scenario injection
  /// knob (fl::FederationConfig::drift): churn admission (departures
  /// leaving the sample pool, newcomers routed via the paper's
  /// assign_newcomer path) always runs when a drift plan is configured;
  /// detection + split/merge recovery only run when `enabled` here.
  struct DynamicConfig {
    bool enabled = false;
    fl::DriftDetectorConfig detector{};
    /// Soft-membership move margin; see cluster::ReclusterConfig.
    double reassign_margin = 1.0;
    /// Re-clustering recoveries allowed per run; 0 = unlimited.
    std::size_t max_recoveries = 0;
  };
  DynamicConfig dynamic{};

  // --- Crash recovery ----------------------------------------------------
  /// Write a robust::RunCheckpoint after every round r with
  /// r % checkpoint_every == 0 (round 0 included); 0 = never checkpoint.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path = "fedclust_run.ckpt";
};

/// Everything the server learns in the one-shot clustering round. Kept
/// around to admit newcomers without re-clustering.
struct ClusteringOutcome {
  /// Per-client formation uploads; EMPTY vector for a deferred client
  /// whose upload never arrived (filled in later by the newcomer path).
  std::vector<std::vector<float>> partial_weights;
  /// Euclidean distances over `reporters` (row i = reporters[i]). With
  /// no faults reporters is every client, so rows = client ids as before.
  Matrix proximity;
  cluster::Dendrogram dendrogram;
  double threshold = 0.0;  ///< the cut actually applied
  /// Per-client cluster assignment (ALL clients; a deferred client holds
  /// a provisional 0 until the newcomer path places it).
  std::vector<std::size_t> labels;
  /// Sorted ids whose formation upload arrived (possibly after retries).
  std::vector<std::size_t> reporters;
  /// Sorted ids still missing after every retry — formation_phase admits
  /// them via the newcomer path before round 1.
  std::vector<std::size_t> deferred;
  /// Clients solicited in each retry wave (wave w = attempt w + 1), for
  /// download metering.
  std::vector<std::vector<std::size_t>> resolicited;
  /// Quorum failed: everyone was labeled 0 (global FedAvg fallback).
  bool fallback_global = false;
};

/// The paper's method as one fl::Algorithm: begin() is the round-0
/// formation phase, sync_round() is per-cluster FedAvg (with churn
/// admission at its top under a drift plan), and after_round() holds the
/// sync-only extensions — drift detection → recover_clusters and the
/// periodic checkpoint write. Async-capable unless one of those sync-only
/// knobs (dynamic.enabled, checkpoint_every) is set.
class FedClust : public fl::Algorithm {
 public:
  explicit FedClust(FedClustConfig config) : config_(config) {}

  std::string name() const override { return "FedClust"; }

  const FedClustConfig& config() const { return config_; }

  /// The one-shot formation step alone (round 0). Exposed for the Fig. 1
  /// reproduction, the ablations, and the newcomer bench. Does not meter
  /// communication; formation_phase does.
  ClusteringOutcome form_clusters(fl::Federation& federation,
                                  std::size_t round = 0) const;

  /// The whole round-0 phase as begin() executes it: opens comm round 0,
  /// forms clusters, meters the formation traffic, warm-starts the
  /// classifier slices, admits deferred clients via the newcomer path,
  /// and appends the round-0 metrics entry. Fills `labels_out` /
  /// `cluster_weights_out` and returns the clustering outcome.
  ClusteringOutcome formation_phase(
      fl::Federation& federation, fl::RunResult& result,
      std::vector<std::size_t>& labels_out,
      std::vector<std::vector<float>>& cluster_weights_out) const;

  /// Formation artifacts of the current (or last) run; empty before the
  /// first run. Kept for newcomer admission and serving.
  const std::optional<ClusteringOutcome>& last_clustering() const {
    return outcome_;
  }

  /// Dynamic newcomer admission: trains `newcomer_train` locally from the
  /// initial global model, extracts the partial weights, and returns the
  /// cluster whose members are closest on average. `outcome` is typically
  /// last_clustering(); `template_model` must match the federation's.
  /// Also returns the newcomer's partial vector via `partial_out` when
  /// non-null (so callers can append it to the outcome).
  std::size_t assign_newcomer(const nn::Model& template_model,
                              const data::Dataset& newcomer_train,
                              const fl::LocalTrainConfig& local_config,
                              Rng rng, const ClusteringOutcome& outcome,
                              std::vector<float>* partial_out = nullptr) const;

  /// Continues a killed run from a checkpoint written by this config:
  /// fl::resume_synchronized(federation, *this, checkpoint, rounds).
  fl::RunResult resume(fl::Federation& federation,
                       const robust::RunCheckpoint& checkpoint,
                       std::size_t rounds);

  // -- fl::Algorithm --------------------------------------------------------
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  void after_round(fl::Federation& federation, std::size_t round, bool last,
                   const fl::AccuracySummary* acc,
                   fl::RunResult& result) override;
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return cluster_weights_.size(); }
  void finish(fl::RunResult& result) override;

  bool supports_async() const override {
    return !config_.dynamic.enabled && config_.checkpoint_every == 0;
  }
  std::size_t cluster_of(std::size_t client) const override {
    return labels_.at(client);
  }
  std::span<const float> cluster_model(std::size_t cluster) const override;
  void set_cluster_model(std::size_t cluster,
                         std::vector<float> weights) override;

  void save_state(robust::RunCheckpoint& checkpoint) const override;
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override;

 private:
  /// Departure/arrival handling at round entry: departed slots lose
  /// their stored anchor, newcomers run the paper's solo warmup and are
  /// routed to the nearest cluster (reliably simulated + metered).
  void admit_churn(fl::Federation& federation, std::size_t round);
  /// One newcomer exchange, shared by formation's deferred clients and
  /// churn arrivals: the reliable network op (full model down, partial
  /// up), its metering, assign_newcomer with `rng`, and the partial and
  /// label stored in `outcome`. Returns the assigned cluster.
  std::size_t admit_newcomer(fl::Federation& federation,
                             ClusteringOutcome& outcome, std::size_t slot,
                             std::size_t round, Rng rng) const;
  /// Alarm response: re-solicit fresh anchors from the flagged clusters'
  /// active members, repair the partition via cluster::recluster, remap
  /// the server models along the parent mapping, reset the detector.
  /// Returns the number of re-clusterings applied (0 when no flagged
  /// cluster had an active member to re-anchor).
  std::size_t recover_clusters(fl::Federation& federation, std::size_t round,
                               const std::vector<fl::DriftAlarm>& alarms);

  FedClustConfig config_;
  // Per-run state; begin() / restore_state() reset all of it.
  std::optional<ClusteringOutcome> outcome_;
  std::vector<std::size_t> labels_;
  std::vector<std::vector<float>> cluster_weights_;
  /// Present only in dynamic mode.
  std::optional<fl::DriftDetector> detector_;
  std::size_t recoveries_ = 0;
};

}  // namespace fedclust::core
