// Deterministic discrete-event simulation of synchronous FL rounds.
//
// One round, as the simulator models it:
//
//   server broadcast --> client compute --> client upload (with retries)
//
// Broadcasts go out in parallel at the round's start; each client's
// compute time is charged from its sample count x epochs x a per-sample
// cost model x the device's compute_scale; uploads can be dropped
// (per-link probability) and are retried with exponential backoff up to
// max_retries times. The server closes the round at the earliest of:
//   * the absolute deadline (deadline_s, if set),
//   * the straggler cutoff: the arrival of the first
//     ceil(straggler_frac x expected) uploads (if straggler_frac < 1),
//   * every expected upload resolving (delivered or lost).
// Uploads arriving after the close are "late" and, like lost ones, never
// reach the aggregator.
//
// Determinism contract: every stochastic draw (jitter, drops) comes from
// a splittable stream keyed by (seed, round, client, attempt, purpose) —
// never from a shared mutable stream — and ties in the event queue break
// by push order. Identical (config, seed, ops) therefore produce
// bit-identical event logs and round reports, regardless of thread
// count anywhere else in the process.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/event.hpp"
#include "net/link.hpp"
#include "net/message.hpp"

namespace fedclust::net {

/// Knobs of the simulated network, carried inside FederationConfig.
/// Default-constructed = disabled: the engine then meters bare float
/// bytes exactly as it did before the network layer existed.
struct NetworkConfig {
  bool enabled = false;
  Profile profile = Profile::kLan;
  /// Absolute per-round deadline in simulated seconds; 0 = none.
  double deadline_s = 0.0;
  /// Close the round once this fraction of expected uploads arrived
  /// (0 < frac <= 1); 1 = wait for everyone.
  double straggler_frac = 1.0;
  /// Resend attempts after a dropped upload (total sends <= 1 + retries).
  std::size_t max_retries = 3;
  /// Attempt i waits backoff_base_s * 2^(i-1) before resending.
  double backoff_base_s = 0.5;
  /// Reference device cost of one training sample for one epoch.
  double compute_s_per_sample = 2e-4;
};

/// One client's part in a round: what it receives, computes, and sends.
struct ClientOp {
  std::size_t client = 0;
  std::size_t download_floats = 0;  ///< broadcast payload to this client
  std::size_t upload_floats = 0;    ///< update payload it sends back
  std::size_t num_samples = 0;      ///< local train set size (compute cost)
  std::size_t epochs = 0;           ///< local epochs (compute cost)
  /// Device churn: the client receives the broadcast but dies before
  /// uploading (the engine's dropout injection).
  bool churned = false;
  MessageKind upload_kind = MessageKind::kModelUpdate;
  /// Framed-byte overrides for codec traffic: when non-zero, this exact
  /// byte count is charged for the transfer instead of
  /// wire_bytes(*_floats). The engine sets these to
  /// wire_bytes_encoded(codec payload) when compression is on; zero
  /// keeps the historical raw-float32 framing bit-identical.
  std::uint64_t download_bytes = 0;
  std::uint64_t upload_bytes = 0;
};

/// Outcome of one asynchronously dispatched op (simulate_client_op).
struct OpOutcome {
  bool delivered = false;    ///< the upload physically arrived
  double finish = 0.0;       ///< arrival (or final resolution) time
  std::size_t attempts = 0;  ///< sends consumed (0 when churned)
};

/// Outcome of one op, in ops order.
struct Arrival {
  std::size_t client = 0;
  bool delivered = false;     ///< the update physically arrived
  bool late = false;          ///< ... but after the round closed
  double time = 0.0;          ///< arrival (or final resolution) time
  std::size_t attempts = 0;   ///< sends consumed (1 = no retries)
};

struct RoundReport {
  std::size_t round = 0;
  double start = 0.0;
  double close = 0.0;  ///< when the server stopped waiting
  std::vector<Arrival> arrivals;
  std::size_t accepted = 0;  ///< delivered && !late
};

class NetworkSimulator {
 public:
  /// Explicit fleet — what tests use to pin exact timings.
  NetworkSimulator(const NetworkConfig& config,
                   std::vector<ClientLink> links, std::uint64_t seed);
  /// Fleet drawn from the config's profile for `num_clients` clients.
  NetworkSimulator(const NetworkConfig& config, std::size_t num_clients,
                   std::uint64_t seed);

  /// Simulates one synchronous round over `ops` and advances the virtual
  /// clock to the round's close. `reliable` models protocol steps that
  /// must hear from every client (e.g. FedClust's formation round): no
  /// deadline, no straggler cutoff, and the final retry never drops.
  RoundReport run_round(std::size_t round, const std::vector<ClientOp>& ops,
                        bool reliable = false);

  /// Simulates one completion-driven dispatch for the async engine: the
  /// broadcast leaves the server at `start`, the client computes, and the
  /// upload goes through the same jitter/drop/backoff pipeline as a
  /// run_round op. `dispatch` is the globally unique dispatch sequence
  /// number — it keys every stochastic draw (offset into its own stream
  /// space so dispatch 0 never aliases round 0's draws) and appears as
  /// the event log's round field. Events are appended to the log grouped
  /// per op, in causal order; there is no deadline, straggler cutoff, or
  /// reliability override — a lost upload simply re-dispatches later.
  /// Does NOT advance the clock (the scheduler owns it: advance_clock).
  OpOutcome simulate_client_op(std::size_t dispatch, const ClientOp& op,
                               double start);

  /// Monotonically advances the virtual clock to at least `t`.
  void advance_clock(double t) { clock_ = std::max(clock_, t); }

  double now() const { return clock_; }
  const std::vector<Event>& log() const { return log_; }
  const std::vector<RoundReport>& round_reports() const { return reports_; }
  const std::vector<ClientLink>& links() const { return links_; }
  const NetworkConfig& config() const { return config_; }
  std::uint64_t fingerprint() const { return net::fingerprint(log_); }

  /// Clears the clock, log, and reports (pairs with CommMeter::reset).
  void reset();

  /// Restores the virtual clock and event log from a checkpoint. Reports
  /// are per-run diagnostics and start empty; every future draw is keyed
  /// functionally by (seed, round, client, attempt), so no RNG state
  /// needs restoring.
  void restore(double clock, std::vector<Event> log);

 private:
  Rng draw(std::uint64_t purpose, std::size_t round, std::size_t client,
           std::size_t attempt) const;

  NetworkConfig config_;
  std::vector<ClientLink> links_;
  std::uint64_t seed_ = 0;
  double clock_ = 0.0;
  std::vector<Event> log_;
  std::vector<RoundReport> reports_;
};

/// Sums framed bytes of delivered traffic in an event log: broadcasts
/// (server -> client) and on-time uploads (client -> server). The
/// CommMeter's totals are exactly this view when the simulator is on.
struct DeliveredBytes {
  std::uint64_t download = 0;
  std::uint64_t upload = 0;
};
DeliveredBytes delivered_bytes(const std::vector<Event>& log);

}  // namespace fedclust::net
