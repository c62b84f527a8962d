#include "robust/drift.hpp"

#include <algorithm>

#include "utils/error.hpp"

namespace fedclust::robust {
namespace {

// Purpose tags for the per-draw streams (arbitrary, fixed forever; the
// 0x7d__ block is reserved for the drift layer — disjoint from the
// 0x7b__ fault block and every training/network stream).
constexpr std::uint64_t kCohortDraw = 0x7d01;    // fractional cohorts
constexpr std::uint64_t kNewcomerDraw = 0x7d02;  // per-generation rotation
constexpr std::uint64_t kShiftDraw = 0x7d03;     // per-sample label shift

}  // namespace

const char* to_string(DriftKind kind) {
  switch (kind) {
    case DriftKind::kLabelRotation:
      return "label_rotation";
    case DriftKind::kLabelShift:
      return "label_shift";
    case DriftKind::kDeparture:
      return "departure";
    case DriftKind::kArrival:
      return "arrival";
  }
  return "?";
}

DriftPlan::DriftPlan(const DriftConfig& config, std::uint64_t seed,
                     std::size_t num_clients, std::size_t num_classes)
    : config_(config),
      seed_(seed),
      num_clients_(num_clients),
      num_classes_(num_classes) {
  FEDCLUST_REQUIRE(num_clients_ > 0, "drift plan needs a non-empty fleet");
  FEDCLUST_REQUIRE(num_classes_ > 0, "drift plan needs a class count");
  events_ = config_.events;
  // Stable sort keeps same-round events in declaration order, so a
  // departure followed by an arrival at the same round is a slot
  // hand-over, not a no-op.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const DriftEvent& a, const DriftEvent& b) {
                     return a.round < b.round;
                   });
  slots_.reserve(events_.size());
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const DriftEvent& ev = events_[e];
    FEDCLUST_REQUIRE(ev.round >= 1,
                     "drift events fire at round >= 1 (round 0 is the "
                     "pre-drift formation round)");
    if (ev.kind == DriftKind::kLabelRotation) {
      FEDCLUST_REQUIRE(ev.rotate_by % num_classes_ != 0,
                       "label rotation must change the labels");
    }
    if (ev.kind == DriftKind::kLabelShift) {
      FEDCLUST_REQUIRE(ev.shift_frac > 0.0 && ev.shift_frac <= 1.0,
                       "shift_frac must be in (0, 1]");
      FEDCLUST_REQUIRE(ev.target_class < num_classes_,
                       "shift target class out of range");
    }
    std::vector<std::size_t> cohort = ev.slots;
    if (cohort.empty()) {
      FEDCLUST_REQUIRE(ev.frac > 0.0 && ev.frac <= 1.0,
                       "drift event needs explicit slots or frac in (0, 1]");
      const auto want = static_cast<std::size_t>(ev.frac * num_clients_);
      cohort = Rng(seed_).split(kCohortDraw).split(e).sample_without_replacement(
          num_clients_, std::max<std::size_t>(1, want));
    }
    std::sort(cohort.begin(), cohort.end());
    cohort.erase(std::unique(cohort.begin(), cohort.end()), cohort.end());
    FEDCLUST_REQUIRE(cohort.back() < num_clients_,
                     "drift event slot out of range");
    slots_.push_back(std::move(cohort));
  }
}

const std::vector<std::size_t>& DriftPlan::event_slots(std::size_t e) const {
  FEDCLUST_REQUIRE(e < slots_.size(), "drift event index out of range");
  return slots_[e];
}

bool DriftPlan::covers(std::size_t e, std::size_t slot) const {
  const std::vector<std::size_t>& s = slots_[e];
  return std::binary_search(s.begin(), s.end(), slot);
}

bool DriftPlan::active(std::size_t round, std::size_t slot) const {
  bool alive = true;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round > round) break;
    if (events_[e].kind == DriftKind::kDeparture && covers(e, slot)) {
      alive = false;
    } else if (events_[e].kind == DriftKind::kArrival && covers(e, slot)) {
      alive = true;
    }
  }
  return alive;
}

std::size_t DriftPlan::generation(std::size_t round, std::size_t slot) const {
  std::size_t gen = 0;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round > round) break;
    if (events_[e].kind == DriftKind::kArrival && covers(e, slot)) ++gen;
  }
  return gen;
}

std::vector<std::size_t> DriftPlan::arrivals_at(std::size_t round) const {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round == round &&
        events_[e].kind == DriftKind::kArrival) {
      out.insert(out.end(), slots_[e].begin(), slots_[e].end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::size_t> DriftPlan::departures_at(std::size_t round) const {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round == round &&
        events_[e].kind == DriftKind::kDeparture) {
      out.insert(out.end(), slots_[e].begin(), slots_[e].end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t DriftPlan::newcomer_rotation(std::size_t slot,
                                         std::size_t gen) const {
  if (!config_.rotate_newcomers || num_classes_ < 2) return 0;
  // A non-zero rotation, so generation g is a genuinely different client
  // than generation g-1 on the same slot.
  return 1 + Rng(seed_)
                 .split(kNewcomerDraw)
                 .split(slot)
                 .split(gen)
                 .uniform_int(num_classes_ - 1);
}

std::uint64_t DriftPlan::transform_signature(std::size_t round,
                                             std::size_t slot) const {
  // FNV-1a over the newcomer generation and the applying event indices.
  // 0 is reserved for the identity so a drift-free shard can be served
  // straight from the wrapped fleet.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  const std::size_t gen = generation(round, slot);
  std::size_t base_round = 0;  // last arrival <= round, data baseline
  if (gen > 0) {
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (events_[e].round > round) break;
      if (events_[e].kind == DriftKind::kArrival && covers(e, slot)) {
        base_round = events_[e].round;
      }
    }
    mix(0x01);
    mix(gen);
  }
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round > round) break;
    if (events_[e].round <= base_round) continue;
    if ((events_[e].kind == DriftKind::kLabelRotation ||
         events_[e].kind == DriftKind::kLabelShift) &&
        covers(e, slot)) {
      mix(0x02);
      mix(e);
    }
  }
  return h == 1469598103934665603ull ? 0 : h;
}

data::Dataset DriftPlan::transform(std::size_t round, std::size_t slot,
                                   const data::Dataset& dataset,
                                   std::uint64_t split_tag) const {
  data::Dataset out = dataset;
  const auto rotate_all = [&](std::size_t by) {
    if (by % num_classes_ == 0) return;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.set_label(i, static_cast<std::int32_t>(
                           (static_cast<std::size_t>(out.label(i)) + by) %
                           num_classes_));
    }
  };
  // A newcomer's baseline is the slot's shard under the cumulative
  // per-generation rotations; drift events from before its arrival do
  // not apply (they happened to the previous owner's data).
  const std::size_t gen = generation(round, slot);
  std::size_t base_round = 0;
  if (gen > 0) {
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (events_[e].round > round) break;
      if (events_[e].kind == DriftKind::kArrival && covers(e, slot)) {
        base_round = events_[e].round;
      }
    }
    for (std::size_t g = 1; g <= gen; ++g) {
      rotate_all(newcomer_rotation(slot, g));
    }
  }
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (events_[e].round > round) break;
    if (events_[e].round <= base_round) continue;
    if (!covers(e, slot)) continue;
    const DriftEvent& ev = events_[e];
    if (ev.kind == DriftKind::kLabelRotation) {
      rotate_all(ev.rotate_by);
    } else if (ev.kind == DriftKind::kLabelShift) {
      Rng draws = Rng(seed_)
                      .split(kShiftDraw)
                      .split(e)
                      .split(slot)
                      .split(split_tag);
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (draws.split(i).bernoulli(ev.shift_frac)) {
          out.set_label(i, static_cast<std::int32_t>(ev.target_class));
        }
      }
    }
  }
  return out;
}

}  // namespace fedclust::robust
