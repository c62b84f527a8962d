#include "net/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "utils/error.hpp"

namespace fedclust::net {
namespace {

// Purpose tags for the per-draw streams (arbitrary, fixed forever).
constexpr std::uint64_t kDownJitter = 0x6e01;
constexpr std::uint64_t kUpJitter = 0x6e02;
constexpr std::uint64_t kDrop = 0x6e03;
constexpr std::uint64_t kFleet = 0x6e7f;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Dispatch sequence numbers share the draw key's "round" slot with the
// synchronous round indices (formation rounds run through run_round even
// in an async run), so they are offset into their own half of the u32
// space — dispatch 0's jitter can never alias round 0's.
constexpr std::size_t kDispatchBase = 1u << 30;

}  // namespace

NetworkSimulator::NetworkSimulator(const NetworkConfig& config,
                                   std::vector<ClientLink> links,
                                   std::uint64_t seed)
    : config_(config), links_(std::move(links)), seed_(seed) {
  FEDCLUST_REQUIRE(!links_.empty(), "network simulator needs >= 1 link");
  FEDCLUST_REQUIRE(
      config_.straggler_frac > 0.0 && config_.straggler_frac <= 1.0,
      "straggler_frac must be in (0, 1]");
  FEDCLUST_REQUIRE(config_.deadline_s >= 0.0, "deadline_s must be >= 0");
  FEDCLUST_REQUIRE(config_.backoff_base_s >= 0.0,
                   "backoff_base_s must be >= 0");
  FEDCLUST_REQUIRE(config_.compute_s_per_sample >= 0.0,
                   "compute_s_per_sample must be >= 0");
}

NetworkSimulator::NetworkSimulator(const NetworkConfig& config,
                                   std::size_t num_clients,
                                   std::uint64_t seed)
    : NetworkSimulator(
          config,
          make_links(config.profile, num_clients, Rng(seed).split(kFleet)),
          seed) {}

Rng NetworkSimulator::draw(std::uint64_t purpose, std::size_t round,
                           std::size_t client, std::size_t attempt) const {
  return Rng(seed_).split(purpose).split(round).split(client).split(attempt);
}

RoundReport NetworkSimulator::run_round(std::size_t round,
                                        const std::vector<ClientOp>& ops,
                                        bool reliable) {
  RoundReport report;
  report.round = round;
  report.start = clock_;
  report.arrivals.resize(ops.size());

  // Per-op state, addressed by client id.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> op_of(links_.size(), kNone);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ClientOp& op = ops[i];
    FEDCLUST_REQUIRE(op.client < links_.size(),
                     "client " << op.client << " has no link");
    FEDCLUST_REQUIRE(op_of[op.client] == kNone,
                     "client " << op.client << " appears twice in round "
                               << round);
    op_of[op.client] = i;
    report.arrivals[i].client = op.client;
  }

  EventQueue queue;
  const auto push = [&](double time, EventKind kind, std::size_t client,
                        std::size_t attempt, std::uint64_t bytes) {
    queue.push(Event{.time = time,
                     .kind = kind,
                     .round = static_cast<std::uint32_t>(round),
                     .client = static_cast<std::uint32_t>(client),
                     .attempt = static_cast<std::uint32_t>(attempt),
                     .bytes = bytes});
  };

  // All broadcasts leave the server at the round start, in parallel. A
  // zero-float download is a bare start-of-round ping (e.g. PACFL's
  // formation, where uploads derive from raw data): it still pays the
  // link latency but carries no accountable bytes.
  for (const ClientOp& op : ops) {
    Rng jitter = draw(kDownJitter, round, op.client, 0);
    const std::uint64_t down =
        op.download_bytes != 0
            ? op.download_bytes
            : (op.download_floats == 0 ? 0 : wire_bytes(op.download_floats));
    push(report.start + transfer_seconds(links_[op.client], down, jitter),
         EventKind::kBroadcastDelivered, op.client, 0, down);
  }
  if (!reliable && config_.deadline_s > 0.0 && !ops.empty()) {
    push(report.start + config_.deadline_s, EventKind::kDeadline, 0, 0, 0);
  }

  // Uploads expected from everyone the server broadcast to, minus churn.
  std::size_t expected = 0;
  for (const ClientOp& op : ops) expected += op.churned ? 0 : 1;
  const std::size_t need =
      !reliable && config_.straggler_frac < 1.0
          ? std::min<std::size_t>(
                expected,
                std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::ceil(
                           config_.straggler_frac *
                           static_cast<double>(expected)))))
          : expected;

  double close = kInf;
  double last_resolution = report.start;
  std::size_t on_time = 0;

  while (!queue.empty()) {
    const Event e = queue.pop();
    log_.push_back(e);
    if (e.kind == EventKind::kDeadline) {
      if (close == kInf) close = e.time;
      continue;
    }
    const ClientOp& op = ops[op_of[e.client]];
    Arrival& arrival = report.arrivals[op_of[e.client]];

    switch (e.kind) {
      case EventKind::kBroadcastDelivered: {
        const double compute = static_cast<double>(op.num_samples) *
                               static_cast<double>(op.epochs) *
                               config_.compute_s_per_sample *
                               links_[op.client].compute_scale;
        if (op.churned) {
          // The device dies before its upload; the server only learns by
          // never hearing back.
          last_resolution = std::max(last_resolution, e.time + compute);
          break;
        }
        push(e.time + compute, EventKind::kComputeDone, e.client, 0, 0);
        break;
      }
      case EventKind::kComputeDone:
        push(e.time, EventKind::kUploadAttempt, e.client, 0,
             op.upload_bytes != 0 ? op.upload_bytes
                                  : wire_bytes(op.upload_floats));
        break;
      case EventKind::kUploadAttempt: {
        Rng jitter = draw(kUpJitter, round, e.client, e.attempt);
        const double arrive =
            e.time + transfer_seconds(links_[e.client], e.bytes, jitter);
        const double p = links_[e.client].drop_prob;
        const bool last_try = e.attempt >= config_.max_retries;
        bool dropped =
            p > 0.0 && draw(kDrop, round, e.client, e.attempt).bernoulli(p);
        if (reliable && last_try) dropped = false;  // formation never fails
        push(arrive,
             dropped ? EventKind::kUploadDropped : EventKind::kUploadDelivered,
             e.client, e.attempt, e.bytes);
        break;
      }
      case EventKind::kUploadDropped:
        if (e.attempt < config_.max_retries) {
          const double backoff =
              config_.backoff_base_s * std::ldexp(1.0, static_cast<int>(e.attempt));
          push(e.time + backoff, EventKind::kUploadAttempt, e.client,
               e.attempt + 1, e.bytes);
        } else {
          log_.push_back(Event{.time = e.time,
                               .kind = EventKind::kUploadLost,
                               .round = e.round,
                               .client = e.client,
                               .attempt = e.attempt,
                               .bytes = e.bytes});
          arrival.attempts = e.attempt + 1;
          arrival.time = e.time;
          last_resolution = std::max(last_resolution, e.time);
        }
        break;
      case EventKind::kUploadDelivered: {
        arrival.delivered = true;
        arrival.attempts = e.attempt + 1;
        arrival.time = e.time;
        arrival.late = e.time > close;
        if (arrival.late) {
          // Reclassify in the log so it reads as the server saw it.
          log_.back().kind = EventKind::kUploadLate;
        } else {
          ++on_time;
          if (on_time >= need && close == kInf) close = e.time;
        }
        last_resolution = std::max(last_resolution, e.time);
        break;
      }
      default:
        FEDCLUST_FAIL("unexpected event in simulation loop");
    }
  }

  if (close == kInf) close = last_resolution;
  report.close = close;
  for (const Arrival& a : report.arrivals) {
    if (a.delivered && !a.late) ++report.accepted;
  }
  log_.push_back(Event{.time = close,
                       .kind = EventKind::kRoundClosed,
                       .round = static_cast<std::uint32_t>(round),
                       .client = 0,
                       .attempt = 0,
                       .bytes = 0});
  clock_ = std::max(clock_, close);
  reports_.push_back(report);
  return report;
}

OpOutcome NetworkSimulator::simulate_client_op(std::size_t dispatch,
                                               const ClientOp& op,
                                               double start) {
  FEDCLUST_REQUIRE(op.client < links_.size(),
                   "client " << op.client << " has no link");
  const std::size_t key = kDispatchBase + dispatch;
  const auto log = [&](double time, EventKind kind, std::size_t attempt,
                       std::uint64_t bytes) {
    log_.push_back(Event{.time = time,
                         .seq = static_cast<std::uint64_t>(attempt),
                         .kind = kind,
                         .round = static_cast<std::uint32_t>(key),
                         .client = static_cast<std::uint32_t>(op.client),
                         .attempt = static_cast<std::uint32_t>(attempt),
                         .bytes = bytes});
  };

  // Broadcast + compute, exactly as run_round charges them.
  Rng down_jitter = draw(kDownJitter, key, op.client, 0);
  const std::uint64_t down =
      op.download_bytes != 0
          ? op.download_bytes
          : (op.download_floats == 0 ? 0 : wire_bytes(op.download_floats));
  const double t_down =
      start + transfer_seconds(links_[op.client], down, down_jitter);
  log(t_down, EventKind::kBroadcastDelivered, 0, down);
  const double compute = static_cast<double>(op.num_samples) *
                         static_cast<double>(op.epochs) *
                         config_.compute_s_per_sample *
                         links_[op.client].compute_scale;

  OpOutcome out;
  if (op.churned) {
    // The device dies before uploading; its slot frees once the server
    // could at the earliest have heard back.
    out.finish = t_down + compute;
    return out;
  }
  log(t_down + compute, EventKind::kComputeDone, 0, 0);

  const std::uint64_t up = op.upload_bytes != 0
                               ? op.upload_bytes
                               : wire_bytes(op.upload_floats);
  double t = t_down + compute;
  for (std::size_t attempt = 0;; ++attempt) {
    log(t, EventKind::kUploadAttempt, attempt, up);
    Rng up_jitter = draw(kUpJitter, key, op.client, attempt);
    const double arrive = t + transfer_seconds(links_[op.client], up, up_jitter);
    const double p = links_[op.client].drop_prob;
    const bool dropped =
        p > 0.0 && draw(kDrop, key, op.client, attempt).bernoulli(p);
    if (!dropped) {
      log(arrive, EventKind::kUploadDelivered, attempt, up);
      out.delivered = true;
      out.finish = arrive;
      out.attempts = attempt + 1;
      return out;
    }
    log(arrive, EventKind::kUploadDropped, attempt, up);
    if (attempt >= config_.max_retries) {
      log(arrive, EventKind::kUploadLost, attempt, up);
      out.finish = arrive;
      out.attempts = attempt + 1;
      return out;
    }
    const double backoff =
        config_.backoff_base_s * std::ldexp(1.0, static_cast<int>(attempt));
    t = arrive + backoff;
  }
}

void NetworkSimulator::reset() {
  clock_ = 0.0;
  log_.clear();
  reports_.clear();
}

void NetworkSimulator::restore(double clock, std::vector<Event> log) {
  clock_ = clock;
  log_ = std::move(log);
  reports_.clear();
}

DeliveredBytes delivered_bytes(const std::vector<Event>& log) {
  DeliveredBytes out;
  for (const Event& e : log) {
    if (e.kind == EventKind::kBroadcastDelivered) out.download += e.bytes;
    if (e.kind == EventKind::kUploadDelivered) out.upload += e.bytes;
  }
  return out;
}

}  // namespace fedclust::net
