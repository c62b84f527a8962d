// Deterministic fault injection for federated rounds.
//
// A FaultPlan decides, per (round, client, attempt), whether a client
// misbehaves this round and how: crashing before its upload leaves the
// device, replaying a stale model instead of training the current one,
// or corrupting the uploaded weights (NaN/Inf poisoning, sign-flipped
// Byzantine reflection, norm-scaled blow-up). Every decision comes from
// a splittable stream keyed by (seed, purpose, round, client, attempt)
// — the same discipline as the PR-2 network simulator — so fault
// trajectories are bit-identical across thread counts, SIMD dispatch,
// and checkpoint resume, and never perturb the training streams.
//
// This library sits BELOW src/fl: it knows only weight vectors and ids,
// and the federation engine applies its decisions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "utils/rng.hpp"

namespace fedclust::robust {

/// What a faulty client does in a round. Ordered by where the fault
/// strikes: kCrash before upload, kStaleReplay before training, the rest
/// corrupt the uploaded payload.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// Device dies mid-round; the server never receives an upload.
  kCrash,
  /// Client trains from a stale model (the round-0 initialization) and
  /// uploads that — the classic stale-round replay of a device that
  /// missed intermediate broadcasts.
  kStaleReplay,
  /// A fraction of uploaded coordinates are NaN/Inf (bit corruption,
  /// overflowed local training).
  kNanPoison,
  /// Byzantine sign flip: the upload is reflected about the round's
  /// start weights, w' = 2*start - w — exactly cancels an honest
  /// client's progress under plain averaging.
  kSignFlip,
  /// Byzantine norm blow-up: the update delta is scaled by
  /// FaultConfig::blowup_factor, dragging the average far from the
  /// honest cohort.
  kScaleBlowup,
};

const char* to_string(FaultKind kind);

/// Fault-injection knobs, carried inside fl::FederationConfig. Disabled
/// by default; with `enabled` false the engine never consults the plan
/// and behaves bit-identically to a fault-free build.
struct FaultConfig {
  bool enabled = false;
  /// Per-(round, client) probabilities of each fault kind. They are
  /// mutually exclusive within a round (one uniform draw is partitioned
  /// by cumulative probability), so their sum must be <= 1.
  double crash_prob = 0.0;
  double stale_prob = 0.0;
  double nan_prob = 0.0;
  double sign_flip_prob = 0.0;
  double scale_prob = 0.0;
  /// Clients that sign-flip EVERY round (from start_round on) — the
  /// fixed Byzantine cohort of the 20%-attacker experiments. Probability
  /// draws above do not apply to these clients.
  std::vector<std::size_t> byzantine_clients;
  /// Delta scale applied by kScaleBlowup.
  double blowup_factor = 10.0;
  /// Amplification of the sign-flip: the attacker uploads
  /// start - sign_flip_scale * (w - start). 1.0 is the pure reflection
  /// (cancels one honest client under averaging); > 1 is the standard
  /// amplified sign-flipping attack, strong enough to stall or reverse
  /// plain averaging with a 20% cohort.
  double sign_flip_scale = 1.0;
  /// Fraction of coordinates kNanPoison corrupts (at least one).
  double poison_frac = 0.01;
  /// Faults only fire in rounds >= start_round. 0 includes FedClust's
  /// formation round; 1 spares it (the Byzantine-aggregation demos use
  /// this to isolate the training-round attack).
  std::size_t start_round = 0;
};

/// The deterministic fault schedule. Stateless apart from its config and
/// seed: decide() is a pure function of (round, client, attempt).
class FaultPlan {
 public:
  FaultPlan(const FaultConfig& config, std::uint64_t seed);

  /// The fault (or kNone) striking `client` in `round`. `attempt`
  /// distinguishes re-solicitations of the same round (FedClust's
  /// formation retries): a client that crashed on attempt 0 may succeed
  /// on attempt 1.
  FaultKind decide(std::size_t round, std::size_t client,
                   std::size_t attempt = 0) const;

  /// Whether `client` is in the permanent Byzantine cohort.
  bool is_byzantine(std::size_t client) const;

  /// Stream for the payload corruption applied to (round, client) —
  /// coordinate choices of kNanPoison.
  Rng payload_rng(std::size_t round, std::size_t client) const;

  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  std::uint64_t seed_ = 0;
  std::vector<std::size_t> byzantine_sorted_;
};

/// Applies a payload fault in place. `start` is the weight vector the
/// client downloaded at the round's start (the reflection/scaling
/// anchor); `weights` the trained upload. `rng` drives coordinate
/// choices (FaultPlan::payload_rng). kNone/kCrash/kStaleReplay leave the
/// payload untouched.
void apply_payload_fault(FaultKind kind, const FaultConfig& config,
                         std::span<const float> start,
                         std::vector<float>& weights, Rng rng);

}  // namespace fedclust::robust
