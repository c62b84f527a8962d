#include "robust/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "utils/error.hpp"

namespace fedclust::robust {
namespace {

// Purpose tags for the per-draw streams (arbitrary, fixed forever; the
// 0x7b__ block is reserved for the robustness layer).
constexpr std::uint64_t kFaultDraw = 0x7b01;
constexpr std::uint64_t kPayload = 0x7b02;

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStaleReplay:
      return "stale_replay";
    case FaultKind::kNanPoison:
      return "nan_poison";
    case FaultKind::kSignFlip:
      return "sign_flip";
    case FaultKind::kScaleBlowup:
      return "scale_blowup";
  }
  return "unknown";
}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      byzantine_sorted_(config.byzantine_clients) {
  const auto check_prob = [](double p, const char* name) {
    FEDCLUST_REQUIRE(p >= 0.0 && p <= 1.0,
                     name << " must be in [0, 1], got " << p);
  };
  check_prob(config_.crash_prob, "crash_prob");
  check_prob(config_.stale_prob, "stale_prob");
  check_prob(config_.nan_prob, "nan_prob");
  check_prob(config_.sign_flip_prob, "sign_flip_prob");
  check_prob(config_.scale_prob, "scale_prob");
  const double total = config_.crash_prob + config_.stale_prob +
                       config_.nan_prob + config_.sign_flip_prob +
                       config_.scale_prob;
  FEDCLUST_REQUIRE(total <= 1.0 + 1e-12,
                   "fault probabilities must sum to <= 1, got " << total);
  FEDCLUST_REQUIRE(config_.poison_frac > 0.0 && config_.poison_frac <= 1.0,
                   "poison_frac must be in (0, 1]");
  FEDCLUST_REQUIRE(config_.sign_flip_scale > 0.0,
                   "sign_flip_scale must be positive");
  std::sort(byzantine_sorted_.begin(), byzantine_sorted_.end());
}

bool FaultPlan::is_byzantine(std::size_t client) const {
  return std::binary_search(byzantine_sorted_.begin(), byzantine_sorted_.end(),
                            client);
}

FaultKind FaultPlan::decide(std::size_t round, std::size_t client,
                            std::size_t attempt) const {
  if (!config_.enabled || round < config_.start_round) return FaultKind::kNone;
  // The fixed Byzantine cohort attacks every round, unconditionally —
  // a colluding adversary, not background churn.
  if (is_byzantine(client)) return FaultKind::kSignFlip;

  // One uniform draw partitioned by cumulative probability keeps the
  // kinds mutually exclusive and the stream consumption fixed.
  Rng rng = Rng(seed_)
                .split(kFaultDraw)
                .split(round)
                .split(client)
                .split(attempt);
  const double u = rng.uniform();
  double edge = config_.crash_prob;
  if (u < edge) return FaultKind::kCrash;
  edge += config_.stale_prob;
  if (u < edge) return FaultKind::kStaleReplay;
  edge += config_.nan_prob;
  if (u < edge) return FaultKind::kNanPoison;
  edge += config_.sign_flip_prob;
  if (u < edge) return FaultKind::kSignFlip;
  edge += config_.scale_prob;
  if (u < edge) return FaultKind::kScaleBlowup;
  return FaultKind::kNone;
}

Rng FaultPlan::payload_rng(std::size_t round, std::size_t client) const {
  return Rng(seed_).split(kPayload).split(round).split(client);
}

void apply_payload_fault(FaultKind kind, const FaultConfig& config,
                         std::span<const float> start,
                         std::vector<float>& weights, Rng rng) {
  switch (kind) {
    case FaultKind::kNone:
    case FaultKind::kCrash:
    case FaultKind::kStaleReplay:
      return;
    case FaultKind::kNanPoison: {
      const std::size_t n = weights.size();
      if (n == 0) return;
      const std::size_t count = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::floor(config.poison_frac * static_cast<double>(n))));
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t at = rng.uniform_int(n);
        // Alternate NaN and Inf so both non-finite classes are exercised.
        weights[at] = (i % 2 == 0)
                          ? std::numeric_limits<float>::quiet_NaN()
                          : std::numeric_limits<float>::infinity();
      }
      return;
    }
    case FaultKind::kSignFlip: {
      FEDCLUST_REQUIRE(start.size() == weights.size(),
                       "sign-flip fault needs start weights of equal size");
      const float s = static_cast<float>(config.sign_flip_scale);
      for (std::size_t i = 0; i < weights.size(); ++i) {
        // s == 1 is the pure reflection 2*start - w; larger scales
        // amplify the flipped delta (the Fang-style attack).
        weights[i] = start[i] - s * (weights[i] - start[i]);
      }
      return;
    }
    case FaultKind::kScaleBlowup: {
      FEDCLUST_REQUIRE(start.size() == weights.size(),
                       "scale fault needs start weights of equal size");
      const float s = static_cast<float>(config.blowup_factor);
      for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = start[i] + s * (weights[i] - start[i]);
      }
      return;
    }
  }
}

}  // namespace fedclust::robust
