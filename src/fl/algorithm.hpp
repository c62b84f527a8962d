// Uniform interface every FL algorithm (baselines and FedClust) exposes.
//
// An Algorithm is its own round adapter: it holds the server-side state
// of one run (labels, cluster models, formation artifacts) and exposes
// the pieces the engines in fl/async.hpp need. fl::run_synchronized is
// the one synchronous round loop — reset comm, begin(), then per round
// begin_round + sync_round + the eval cadence + after_round — and
// fl::run_async drives the same state through buffered flushes.
// Algorithm::run is a thin call into run_synchronized, so no algorithm
// keeps a round loop of its own.
//
// Instances are reusable: begin() (and restore_state() on resume)
// resets every piece of per-run state, so running one instance twice on
// identically built federations gives identical trajectories.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fl/metrics.hpp"

namespace fedclust::robust {
struct RunCheckpoint;
}

namespace fedclust::fl {

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Display name used in tables ("FedAvg", "FedClust", ...).
  virtual std::string name() const = 0;

  /// Executes `rounds` communication rounds against the federation:
  /// fl::run_synchronized(federation, *this, rounds), which resets
  /// the federation's CommMeter at entry; the algorithm meters all
  /// traffic it generates, and evaluation follows
  /// federation.config().eval_every (the last round always evaluates).
  RunResult run(Federation& federation, std::size_t rounds);

  // -- round surface (both engines) ----------------------------------------
  /// Resets all per-run state and runs the formation phase (metering,
  /// simulated rounds, the round-0 metrics entry when there is one). The
  /// caller has already reset comm. Returns the first trainable round
  /// index (0 for methods without a formation round).
  virtual std::size_t begin(Federation& federation, RunResult& result) = 0;

  /// One synchronous round. The caller has opened the comm round.
  /// Returns the round's mean train loss.
  virtual double sync_round(Federation& federation, std::size_t round) = 0;

  /// Post-round hook of run_synchronized, called after the round's
  /// metrics entry (if any) is appended to result.rounds. `acc` is the
  /// round's evaluation, null when the round was not evaluated. Default:
  /// nothing.
  virtual void after_round(Federation& federation, std::size_t round,
                           bool last, const AccuracySummary* acc,
                           RunResult& result);

  virtual AccuracySummary evaluate(const Federation& federation) const = 0;
  /// Fingerprint of the server-side model state
  /// (check::weights_fingerprint over whatever the method serves).
  virtual std::uint64_t fingerprint() const = 0;
  virtual std::size_t num_clusters() const = 0;
  /// Copies final labels (and servable cluster models) into the result.
  virtual void finish(RunResult& result) = 0;

  // -- async surface (static cluster assignment) ---------------------------
  /// Whether the algorithm can run buffered: cluster membership must be
  /// static after begin() and every configured feature must work without
  /// a round clock. Default: no.
  virtual bool supports_async() const { return false; }
  virtual std::size_t cluster_of(std::size_t client) const {
    (void)client;
    return 0;
  }
  virtual std::span<const float> cluster_model(std::size_t cluster) const;
  virtual void set_cluster_model(std::size_t cluster,
                                 std::vector<float> weights);
  /// Per-client local-training override the algorithm applies every
  /// round (FedProx's proximal term); null = the federation's config.
  virtual const LocalTrainConfig* local_override() const { return nullptr; }

  // -- checkpoint surface ---------------------------------------------------
  /// Fills the algorithm-owned checkpoint fields (labels,
  /// cluster_weights, formation artifacts, detector state). Default:
  /// refuses.
  virtual void save_state(robust::RunCheckpoint& checkpoint) const;
  /// Restores them on resume (inverse of save_state plus begin()'s state
  /// setup, without re-running formation). Default: refuses.
  virtual void restore_state(Federation& federation,
                             const robust::RunCheckpoint& checkpoint);
};

}  // namespace fedclust::fl
