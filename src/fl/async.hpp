// Event-driven asynchronous federation (FedBuff-style buffered
// aggregation) over the net/ discrete-event simulator.
//
// The synchronous engine is a lockstep barrier: every round waits for
// the slowest surviving client, so on straggler-heavy fleets
// sim_seconds is set by the tail, not by compute. This engine removes
// the barrier: each client re-dispatches the moment its upload
// resolves, and the server applies a buffer of K updates per cluster
// with staleness-weighted mixing
//
//   c_i  ∝  num_samples_i × λ(s_i),   λ(s) = 1 / (1 + s)^a  (or ≡ 1),
//
// where s_i counts the cluster-model versions applied between the
// update's dispatch and its flush. Virtual time (net::Simulator::now())
// drives all metrics; one RoundMetrics entry per evaluated buffer flush
// turns time_to_accuracy into the primary axis.
//
// Determinism argument: the event timeline (dispatch order, arrival
// times, flush boundaries) depends only on (seed, dispatch seq, client,
// attempt) draws and payload sizes — never on trained weights — so the
// scheduler simulates each op's complete network fate at dispatch time
// and trains lazily at flush time, with slot-ordered writes. Thread
// counts and kernel threads only change how the flush's training work is
// executed, not what is computed: trajectories are bit-identical across
// all of them (the same argument the synchronous engine makes, applied
// per flush instead of per round).
//
// The synchronous engine is the exact special case buffer_k == cohort
// with unit staleness weights, and it is the only round loop in the
// library: run_synchronized drives every fl::Algorithm (Algorithm::run
// is a call into it) and resume_synchronized continues a checkpointed
// run through the same loop. capture_checkpoint/restore_checkpoint are
// the one place a run's metrics trajectory, comm meter, network state
// and quarantine ledger move into and out of a robust::RunCheckpoint;
// both the synchronous loop and the buffered scheduler use them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/algorithm.hpp"
#include "robust/checkpoint.hpp"

namespace fedclust::fl {

/// Staleness decay shape for buffered mixing weights.
enum class StalenessKind : std::uint8_t {
  kConstant = 0,    ///< λ(s) ≡ 1 — plain FedAvg weighting
  kPolynomial = 1,  ///< λ(s) = 1 / (1 + s)^exponent (FedBuff's default)
};

/// λ(staleness) under the chosen decay; exact 1.0 at staleness 0.
double staleness_weight(StalenessKind kind, double exponent,
                        std::size_t staleness);

/// Knobs of the buffered async engine.
struct AsyncConfig {
  /// Updates buffered per cluster before a flush aggregates them.
  std::size_t buffer_k = 16;
  /// Mixing-weight decay against the broadcast version each update was
  /// computed from.
  StalenessKind staleness_fn = StalenessKind::kPolynomial;
  double staleness_exponent = 0.5;
  /// Discard updates staler than this many applied versions (0 = keep
  /// everything). With validation enabled a discard is also a
  /// quarantine strike (robust::RejectReason::kStaleness).
  std::size_t max_staleness = 0;
  /// Modeled concurrent trainers: at most this many clients hold an
  /// outstanding dispatch at once (FedBuff's Mc). 0 = the whole fleet.
  /// SEMANTIC knob — it changes the event timeline and the trajectory.
  std::size_t inflight = 0;
  /// Write a robust::RunCheckpoint (with the in-flight buffer and
  /// dispatch frontier) every this many flushes; 0 = never.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path = "fedclust_async.ckpt";
};

/// The synchronous round loop: reset comm, begin(), then per round
/// begin_round + sync_round + the eval cadence (every
/// config().eval_every rounds and the last one) + after_round, then
/// finish(). Requires rounds > the first trainable round.
RunResult run_synchronized(Federation& federation, Algorithm& algorithm,
                           std::size_t rounds);

/// Continues a killed synchronous run from a checkpoint written by the
/// algorithm's own after_round hook. Restores the federation and the
/// algorithm via restore_checkpoint, then runs rounds
/// [checkpoint.next_round, rounds) through run_synchronized's loop. The
/// federation must be constructed with the same data, config, and seed;
/// every per-(round, client) stream is derived functionally from the
/// seed, so the resumed trajectory is bit-identical to the
/// uninterrupted one.
RunResult resume_synchronized(Federation& federation, Algorithm& algorithm,
                              const robust::RunCheckpoint& checkpoint,
                              std::size_t rounds);

/// Snapshot of a run whose next round (or flush window) is
/// `next_round`: the seed, the algorithm's state (save_state), the
/// metrics emitted so far, the comm meter, the network clock and log
/// (when the simulator is on) and the quarantine ledger.
robust::RunCheckpoint capture_checkpoint(const Federation& federation,
                                         const Algorithm& algorithm,
                                         const RunResult& result,
                                         std::size_t next_round);

/// Inverse of capture_checkpoint: verifies the seed and the network
/// setting, restores comm, network and quarantine into the federation
/// and the algorithm's state (restore_state), and returns a result
/// holding the checkpointed metrics.
RunResult restore_checkpoint(Federation& federation, Algorithm& algorithm,
                             const robust::RunCheckpoint& checkpoint);

/// Event-driven driver: after the formation phase, every client cycles
/// download → compute → upload → re-dispatch continuously (bounded by
/// config.inflight); per-cluster buffers flush independently once they
/// hold buffer_k arrived updates. Runs until `flushes` buffer flushes
/// have been applied. Requires the network simulator and an algorithm
/// with supports_async(). Metrics: one RoundMetrics per evaluated flush
/// (every federation.config().eval_every flushes and the last one), with
/// round = first_round + flush index and sim_seconds = virtual time at
/// the flush.
RunResult run_async(Federation& federation, Algorithm& algorithm,
                    const AsyncConfig& config, std::size_t flushes);

/// Continues a killed async run from a checkpoint written by run_async
/// (one carrying the async block). The federation must be constructed
/// with the same data, config, and seed; the resumed trajectory is
/// bit-identical to the uninterrupted one.
RunResult resume_async(Federation& federation, Algorithm& algorithm,
                       const AsyncConfig& config,
                       const robust::RunCheckpoint& checkpoint,
                       std::size_t flushes);

}  // namespace fedclust::fl
