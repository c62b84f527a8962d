// Deterministic distribution-drift and churn scenarios.
//
// A DriftPlan schedules label-distribution drift (rotation of the label
// space, probabilistic shift of samples toward a target class), client
// departure waves, and newcomer cohorts that reuse departed slots. Every
// decision comes from a splittable stream keyed by
// (seed, purpose, event, slot, sample) — the same discipline as
// FaultPlan — so drift trajectories are bit-identical across thread
// counts, SIMD dispatch, and checkpoint resume, and never perturb the
// training streams.
//
// Like FaultPlan this library sits BELOW src/fl: it knows only rounds,
// slot ids and datasets. The federation engine wraps its ClientSource in
// a DriftFleet that applies transform() lazily, so the plan composes
// with VirtualFleet's histogram-virtualized shards unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "utils/rng.hpp"

namespace fedclust::robust {

/// What happens to a cohort of client slots at a scheduled round.
enum class DriftKind : std::uint8_t {
  /// Labels rotate by `rotate_by` classes mod the class count: the
  /// classic sudden concept drift where the input→label mapping changes
  /// but the marginal input distribution does not.
  kLabelRotation = 0,
  /// Each sample is independently relabelled to `target_class` with
  /// probability `shift_frac` — gradual prior-probability shift.
  kLabelShift,
  /// The slots' clients leave the fleet: they stop being sampled,
  /// evaluated, or counted toward accuracy until a later arrival reuses
  /// the slot.
  kDeparture,
  /// A newcomer takes over each slot (possibly one departed earlier).
  /// The newcomer's data is the slot's base shard under a fresh random
  /// label rotation (when rotate_newcomers is set), so it is a genuinely
  /// different client that must be routed by the newcomer rule — and it
  /// must NOT inherit the departed client's quarantine strikes.
  kArrival,
};

const char* to_string(DriftKind kind);

/// One scheduled drift event. Slots are either listed explicitly or
/// drawn deterministically as a `frac` fraction of the fleet.
struct DriftEvent {
  /// First training round whose data sees the event. Must be >= 1:
  /// round 0 is FedClust's formation round and defines "pre-drift".
  std::size_t round = 1;
  DriftKind kind = DriftKind::kLabelRotation;
  /// Explicit slot ids. Empty = draw `frac` of the fleet from the
  /// event's own seed stream.
  std::vector<std::size_t> slots;
  /// Fraction of the fleet to draw when `slots` is empty.
  double frac = 0.0;
  /// kLabelRotation: classes to rotate by (mod class count).
  std::size_t rotate_by = 1;
  /// kLabelShift: per-sample relabel probability and target class.
  double shift_frac = 0.5;
  std::size_t target_class = 0;
};

/// Drift knobs, carried inside fl::FederationConfig. Disabled by
/// default; with `enabled` false the engine never builds a plan and
/// behaves bit-identically to a drift-free build.
struct DriftConfig {
  bool enabled = false;
  std::vector<DriftEvent> events;
  /// Whether kArrival newcomers get a fresh per-generation label
  /// rotation (true) or replay the slot's base shard (false).
  bool rotate_newcomers = true;
};

/// The deterministic drift schedule. Stateless apart from its config and
/// seed: every query is a pure function of (round, slot), so any round
/// can be reconstructed from scratch after a checkpoint resume.
class DriftPlan {
 public:
  /// Resolves every event's slot cohort up front (explicit lists are
  /// sorted and deduplicated; fractional cohorts are drawn from the
  /// event's seed stream) and sorts events by round, stably.
  DriftPlan(const DriftConfig& config, std::uint64_t seed,
            std::size_t num_clients, std::size_t num_classes);

  std::size_t num_clients() const { return num_clients_; }
  std::size_t num_classes() const { return num_classes_; }
  const DriftConfig& config() const { return config_; }

  /// Resolved, sorted slot cohort of event `e` (index into
  /// config().events after the stable sort by round).
  const std::vector<std::size_t>& event_slots(std::size_t e) const;
  /// The event schedule, sorted by round.
  const std::vector<DriftEvent>& events() const { return events_; }

  /// Whether `slot` holds an active client at `round`: false between a
  /// departure and the next arrival reusing the slot.
  bool active(std::size_t round, std::size_t slot) const;

  /// How many newcomers have taken over `slot` by `round` (0 = the
  /// original client still owns it).
  std::size_t generation(std::size_t round, std::size_t slot) const;

  /// Slots where a newcomer arrives exactly at `round` (sorted).
  std::vector<std::size_t> arrivals_at(std::size_t round) const;
  /// Slots departing exactly at `round` (sorted).
  std::vector<std::size_t> departures_at(std::size_t round) const;

  /// Cache key for the transform applied to `slot`'s data at `round`:
  /// equal signatures produce bit-identical transforms, and 0 means the
  /// identity (the wrapped fleet's shard can be served untouched).
  std::uint64_t transform_signature(std::size_t round,
                                    std::size_t slot) const;

  /// Applies the slot's cumulative drift to `dataset` and returns the
  /// transformed copy. `split_tag` decorrelates the train and test
  /// splits' per-sample shift draws (0 = train, 1 = test). Sample count
  /// and pixel data are preserved — only labels change — so shard sizes
  /// and FedAvg weights are unaffected.
  data::Dataset transform(std::size_t round, std::size_t slot,
                          const data::Dataset& dataset,
                          std::uint64_t split_tag) const;

 private:
  DriftConfig config_;
  std::uint64_t seed_ = 0;
  std::size_t num_clients_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<DriftEvent> events_;               // sorted by round
  std::vector<std::vector<std::size_t>> slots_;  // resolved, sorted

  bool covers(std::size_t e, std::size_t slot) const;
  /// Rotation applied to generation `gen` (>= 1) of `slot`.
  std::size_t newcomer_rotation(std::size_t slot, std::size_t gen) const;
};

}  // namespace fedclust::robust
