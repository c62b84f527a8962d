// Tests for the network layer: message framing, link profiles, the
// event queue, and the discrete-event round simulator (determinism,
// stragglers, deadlines, retries) plus its integration with the
// federation engine and comm meter.
#include "net/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/fedavg.hpp"
#include "fl/metrics.hpp"
#include "test_helpers.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fedclust::net {
namespace {

using testing::make_grouped_federation;

// -- message framing -----------------------------------------------------------

TEST(Message, WireBytesAddsHeader) {
  EXPECT_EQ(wire_bytes(0), kHeaderBytes);
  EXPECT_EQ(wire_bytes(10), kHeaderBytes + 40u);
}

TEST(Message, EncodeDecodeRoundTrip) {
  Message m;
  m.header.kind = MessageKind::kPartialUpdate;
  m.header.round = 7;
  m.header.sender = 3;
  m.payload = {1.5f, -2.25f, 0.0f, 1e-8f};

  const std::vector<std::uint8_t> buf = encode(m);
  EXPECT_EQ(buf.size(), wire_bytes(m.payload.size()));

  const Message back = decode(buf);
  EXPECT_EQ(back.header.kind, MessageKind::kPartialUpdate);
  EXPECT_EQ(back.header.round, 7u);
  EXPECT_EQ(back.header.sender, 3u);
  EXPECT_EQ(back.header.payload_floats, 4u);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(Message, EmptyPayloadRoundTrip) {
  Message m;
  m.header.kind = MessageKind::kModelBroadcast;
  const Message back = decode(encode(m));
  EXPECT_TRUE(back.payload.empty());
  EXPECT_EQ(back.header.sender, kServerId);
}

TEST(Message, RejectsTruncatedPayload) {
  Message m;
  m.payload = {1.0f, 2.0f, 3.0f};
  std::vector<std::uint8_t> buf = encode(m);
  buf.pop_back();
  EXPECT_THROW(decode(buf), Error);
  // Too short for even a header.
  buf.resize(kHeaderBytes - 1);
  EXPECT_THROW(decode(buf), Error);
}

TEST(Message, RejectsTrailingGarbage) {
  Message m;
  m.payload = {1.0f};
  std::vector<std::uint8_t> buf = encode(m);
  buf.push_back(0);
  EXPECT_THROW(decode(buf), Error);
}

TEST(Message, RawLengthOverflowIsRejected) {
  // payload_floats = 2^62 + 1 makes payload_floats * 4 wrap to 4, the
  // size of the one-float payload actually present. With a valid CRC the
  // frame must still fail as a fedclust::Error, not as a length_error
  // from sizing the payload vector.
  Message m;
  m.payload = {1.0f};
  std::vector<std::uint8_t> buf = encode(m);
  ASSERT_EQ(buf.size(), kHeaderBytes + 4);
  const auto put_le = [&](std::size_t at, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  // Raw v2 header: magic(4) version(2) kind(2) round(4) sender(4) |
  // u64 payload_floats | u32 crc32(payload).
  put_le(16, (std::uint64_t{1} << 62) + 1, 8);
  put_le(24, crc32(buf.data() + kHeaderBytes, 4), 4);
  EXPECT_THROW(decode(buf), Error);
}

TEST(Message, CrcDetectsCorruptedPayload) {
  // Every frame carries crc32(payload) in its header; a bit flipped in
  // transit must fail the decode loudly instead of feeding a silently
  // corrupted update to the aggregator.
  Message m;
  m.payload = {1.5f, -2.25f, 0.75f};
  const std::vector<std::uint8_t> good = encode(m);

  std::vector<std::uint8_t> bad_payload = good;
  bad_payload[kHeaderBytes + 2] ^= 0x01;
  EXPECT_THROW(decode(bad_payload), Error);

  // Corrupting the stored CRC itself must also be caught.
  std::vector<std::uint8_t> bad_crc = good;
  bad_crc[kHeaderBytes - 1] ^= 0x80;
  EXPECT_THROW(decode(bad_crc), Error);

  // The untouched frame still round-trips.
  EXPECT_EQ(decode(good).payload, m.payload);
}

TEST(Message, RejectsBadMagicAndUnknownKind) {
  Message m;
  m.payload = {1.0f};
  std::vector<std::uint8_t> good = encode(m);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode(bad_magic), Error);

  // kind lives after magic(4) + version(2).
  std::vector<std::uint8_t> bad_kind = good;
  bad_kind[6] = 99;
  bad_kind[7] = 0;
  EXPECT_THROW(decode(bad_kind), Error);
}

// -- link profiles -------------------------------------------------------------

TEST(Link, ProfileNamesRoundTrip) {
  for (Profile p : all_profiles()) {
    EXPECT_EQ(profile_from_string(to_string(p)), p);
  }
  EXPECT_THROW(profile_from_string("dialup"), Error);
}

TEST(Link, FleetIsDeterministicPerSeed) {
  const auto a = make_links(Profile::kCellular, 8, Rng(5));
  const auto b = make_links(Profile::kCellular, 8, Rng(5));
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency_s, b[i].latency_s);
    EXPECT_EQ(a[i].bandwidth_Bps, b[i].bandwidth_Bps);
    EXPECT_EQ(a[i].compute_scale, b[i].compute_scale);
  }
}

TEST(Link, CellularVariesAcrossClientsLanDoesNot) {
  const auto lan = make_links(Profile::kLan, 4, Rng(5));
  for (const ClientLink& l : lan) {
    EXPECT_EQ(l.bandwidth_Bps, lan.front().bandwidth_Bps);
    EXPECT_EQ(l.drop_prob, 0.0);
  }
  const auto cell = make_links(Profile::kCellular, 16, Rng(5));
  bool varies = false;
  for (const ClientLink& l : cell) {
    EXPECT_GT(l.bandwidth_Bps, 0.0);
    EXPECT_GT(l.drop_prob, 0.0);
    if (l.bandwidth_Bps != cell.front().bandwidth_Bps) varies = true;
  }
  EXPECT_TRUE(varies);
}

TEST(Link, TransferSecondsIsLatencyPlusSerialization) {
  ClientLink link{.latency_s = 1.0, .bandwidth_Bps = 100.0, .jitter_s = 0.0};
  Rng rng(1);
  EXPECT_DOUBLE_EQ(transfer_seconds(link, 200, rng), 3.0);
}

// -- event queue ---------------------------------------------------------------

TEST(EventQueue, PopsByTimeThenPushOrder)
{
  EventQueue q;
  q.push({.time = 2.0, .client = 10});
  q.push({.time = 1.0, .client = 11});
  q.push({.time = 1.0, .client = 12});  // same time: push order breaks the tie
  q.push({.time = 0.5, .client = 13});
  EXPECT_EQ(q.pop().client, 13u);
  EXPECT_EQ(q.pop().client, 11u);
  EXPECT_EQ(q.pop().client, 12u);
  EXPECT_EQ(q.pop().client, 10u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FingerprintDistinguishesLogs) {
  std::vector<Event> a{{.time = 1.0, .kind = EventKind::kComputeDone}};
  std::vector<Event> b{{.time = 2.0, .kind = EventKind::kComputeDone}};
  EXPECT_EQ(fingerprint(a), fingerprint(a));
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint({}));
}

// -- simulator: deterministic timing -------------------------------------------

// Two ideal links (no jitter, no drops): every timestamp is exactly
// computable by hand.
NetworkConfig ideal_config() {
  NetworkConfig cfg;
  cfg.enabled = true;
  cfg.compute_s_per_sample = 0.01;
  return cfg;
}

std::vector<ClientLink> ideal_links(std::size_t n, double latency = 1.0,
                                    double bandwidth = 1000.0) {
  return std::vector<ClientLink>(
      n, ClientLink{.latency_s = latency, .bandwidth_Bps = bandwidth});
}

TEST(Simulator, RoundTimingMatchesHandComputation) {
  NetworkSimulator sim(ideal_config(), ideal_links(2), /*seed=*/1);
  // 10 floats each way = kHeaderBytes + 40 framed bytes; 100 samples x
  // 1 epoch = 1 s.
  const std::vector<ClientOp> ops{
      {.client = 0, .download_floats = 10, .upload_floats = 10,
       .num_samples = 100, .epochs = 1},
      {.client = 1, .download_floats = 10, .upload_floats = 10,
       .num_samples = 200, .epochs = 1},
  };
  const RoundReport report = sim.run_round(0, ops);
  const double transfer =
      1.0 + static_cast<double>(kHeaderBytes + 40) / 1000.0;
  EXPECT_NEAR(report.arrivals[0].time, transfer + 1.0 + transfer, 1e-12);
  EXPECT_NEAR(report.arrivals[1].time, transfer + 2.0 + transfer, 1e-12);
  EXPECT_EQ(report.accepted, 2u);
  // With no deadline and no stragglers, the round closes on the last
  // upload; the clock advances with it.
  EXPECT_NEAR(report.close, report.arrivals[1].time, 1e-12);
  EXPECT_NEAR(sim.now(), report.close, 1e-12);

  // The next round starts where this one closed.
  const RoundReport second = sim.run_round(1, ops);
  EXPECT_NEAR(second.start, report.close, 1e-12);
  EXPECT_GT(second.close, second.start);
}

TEST(Simulator, EmptyRoundClosesImmediately) {
  NetworkSimulator sim(ideal_config(), ideal_links(2), 1);
  const RoundReport report = sim.run_round(0, {});
  EXPECT_TRUE(report.arrivals.empty());
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_DOUBLE_EQ(report.close, report.start);
  ASSERT_EQ(sim.log().size(), 1u);
  EXPECT_EQ(sim.log().back().kind, EventKind::kRoundClosed);
}

TEST(Simulator, RejectsDuplicateAndUnknownClients) {
  NetworkSimulator sim(ideal_config(), ideal_links(2), 1);
  EXPECT_THROW(
      sim.run_round(0, {{.client = 0, .upload_floats = 1},
                        {.client = 0, .upload_floats = 1}}),
      Error);
  EXPECT_THROW(sim.run_round(0, {{.client = 5, .upload_floats = 1}}), Error);
}

// -- simulator: determinism ----------------------------------------------------

TEST(Simulator, IdenticalSeedsGiveIdenticalLogs) {
  NetworkConfig cfg = ideal_config();
  cfg.profile = Profile::kCellular;
  cfg.straggler_frac = 0.75;

  std::vector<ClientOp> ops;
  for (std::size_t c = 0; c < 8; ++c) {
    ops.push_back({.client = c, .download_floats = 500, .upload_floats = 500,
                   .num_samples = 50 + 10 * c, .epochs = 2});
  }
  NetworkSimulator a(cfg, 8, /*seed=*/9);
  NetworkSimulator b(cfg, 8, /*seed=*/9);
  NetworkSimulator c(cfg, 8, /*seed=*/10);
  for (std::size_t r = 0; r < 3; ++r) {
    a.run_round(r, ops);
    b.run_round(r, ops);
    c.run_round(r, ops);
  }
  ASSERT_EQ(a.log().size(), b.log().size());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_DOUBLE_EQ(a.now(), b.now());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// -- simulator: straggler cutoff and deadlines ---------------------------------

TEST(Simulator, StragglerCutoffDropsSlowestClient) {
  NetworkConfig cfg = ideal_config();
  cfg.straggler_frac = 0.5;  // need ceil(0.5 * 3) = 2 of 3 arrivals

  std::vector<ClientLink> links = ideal_links(3, /*latency=*/0.001);
  links[2].latency_s = 50.0;  // hopeless straggler
  NetworkSimulator sim(cfg, links, 1);

  std::vector<ClientOp> ops;
  for (std::size_t c = 0; c < 3; ++c) {
    ops.push_back({.client = c, .download_floats = 10, .upload_floats = 10,
                   .num_samples = 10, .epochs = 1});
  }
  const RoundReport report = sim.run_round(0, ops);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_TRUE(report.arrivals[0].delivered);
  EXPECT_FALSE(report.arrivals[0].late);
  EXPECT_TRUE(report.arrivals[2].delivered);
  EXPECT_TRUE(report.arrivals[2].late);
  // The round closed on the second on-time arrival, far before the
  // straggler's ~100 s round trip.
  EXPECT_LT(report.close, 1.0);
  // The late delivery is recorded as such in the log.
  EXPECT_TRUE(std::any_of(sim.log().begin(), sim.log().end(), [](const Event& e) {
    return e.kind == EventKind::kUploadLate && e.client == 2;
  }));
}

TEST(Simulator, AbsoluteDeadlineClosesTheRound) {
  NetworkConfig cfg = ideal_config();
  cfg.deadline_s = 1.0;

  std::vector<ClientLink> links = ideal_links(2, /*latency=*/0.01);
  links[1].latency_s = 10.0;
  NetworkSimulator sim(cfg, links, 1);

  std::vector<ClientOp> ops;
  for (std::size_t c = 0; c < 2; ++c) {
    ops.push_back({.client = c, .download_floats = 10, .upload_floats = 10,
                   .num_samples = 10, .epochs = 1});
  }
  const RoundReport report = sim.run_round(0, ops);
  EXPECT_DOUBLE_EQ(report.close, 1.0);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_TRUE(report.arrivals[1].late);
}

TEST(Simulator, ReliableRoundIgnoresDeadlineAndCutoff) {
  NetworkConfig cfg = ideal_config();
  cfg.deadline_s = 1.0;
  cfg.straggler_frac = 0.5;

  std::vector<ClientLink> links = ideal_links(2, /*latency=*/0.01);
  links[1].latency_s = 10.0;
  NetworkSimulator sim(cfg, links, 1);

  std::vector<ClientOp> ops;
  for (std::size_t c = 0; c < 2; ++c) {
    ops.push_back({.client = c, .download_floats = 10, .upload_floats = 10,
                   .num_samples = 10, .epochs = 1});
  }
  const RoundReport report = sim.run_round(0, ops, /*reliable=*/true);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_GT(report.close, 20.0);  // waited out the slow client
}

// -- simulator: drops, retries, backoff ----------------------------------------

TEST(Simulator, RetriesAreBoundedAndBackOff) {
  NetworkConfig cfg = ideal_config();
  cfg.max_retries = 2;
  cfg.backoff_base_s = 0.5;

  std::vector<ClientLink> links = ideal_links(1, /*latency=*/0.001);
  links[0].drop_prob = 1.0;  // every attempt is lost
  NetworkSimulator sim(cfg, links, 1);

  const std::vector<ClientOp> ops{{.client = 0, .download_floats = 10,
                                   .upload_floats = 10, .num_samples = 10,
                                   .epochs = 1}};
  const RoundReport report = sim.run_round(0, ops);
  EXPECT_FALSE(report.arrivals[0].delivered);
  EXPECT_EQ(report.arrivals[0].attempts, 3u);  // 1 send + 2 retries
  EXPECT_EQ(report.accepted, 0u);

  std::size_t attempts = 0;
  bool lost = false;
  for (const Event& e : sim.log()) {
    if (e.kind == EventKind::kUploadAttempt) ++attempts;
    if (e.kind == EventKind::kUploadLost) lost = true;
    EXPECT_NE(e.kind, EventKind::kUploadDelivered);
  }
  EXPECT_EQ(attempts, 3u);
  EXPECT_TRUE(lost);
  // The exponential backoff (0.5 + 1.0 s between attempts) is visible in
  // the final resolution time.
  EXPECT_GT(report.arrivals[0].time, 1.5);
}

TEST(Simulator, ReliableModeNeverLosesTheFinalAttempt) {
  NetworkConfig cfg = ideal_config();
  cfg.max_retries = 2;

  std::vector<ClientLink> links = ideal_links(1, /*latency=*/0.001);
  links[0].drop_prob = 1.0;
  NetworkSimulator sim(cfg, links, 1);

  const std::vector<ClientOp> ops{{.client = 0, .download_floats = 10,
                                   .upload_floats = 10, .num_samples = 10,
                                   .epochs = 1}};
  const RoundReport report = sim.run_round(0, ops, /*reliable=*/true);
  EXPECT_TRUE(report.arrivals[0].delivered);
  EXPECT_FALSE(report.arrivals[0].late);
  EXPECT_EQ(report.arrivals[0].attempts, 3u);
  EXPECT_EQ(report.accepted, 1u);
}

TEST(Simulator, ChurnedClientsReceiveButNeverUpload) {
  NetworkSimulator sim(ideal_config(), ideal_links(2), 1);
  const std::vector<ClientOp> ops{
      {.client = 0, .download_floats = 10, .upload_floats = 10,
       .num_samples = 10, .epochs = 1},
      {.client = 1, .download_floats = 10, .upload_floats = 10,
       .num_samples = 10, .epochs = 1, .churned = true},
  };
  const RoundReport report = sim.run_round(0, ops);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_FALSE(report.arrivals[1].delivered);
  std::size_t broadcasts = 0;
  for (const Event& e : sim.log()) {
    if (e.kind == EventKind::kBroadcastDelivered) ++broadcasts;
    if (e.kind == EventKind::kUploadAttempt) {
      EXPECT_EQ(e.client, 0u);
    }
  }
  EXPECT_EQ(broadcasts, 2u);  // the churned client still cost a broadcast
}

// -- federation integration ----------------------------------------------------

fl::FederationConfig net_config(std::size_t threads) {
  fl::FederationConfig cfg;
  cfg.threads = threads;
  cfg.local.epochs = 1;
  cfg.local.sgd.lr = 0.05;
  cfg.network.enabled = true;
  cfg.network.profile = Profile::kCellular;
  cfg.network.straggler_frac = 0.75;
  return cfg;
}

TEST(FederationNet, BitIdenticalAcrossThreadCounts) {
  auto [fed1, g1] = make_grouped_federation(6, 480, 21, net_config(1));
  auto [fed3, g3] = make_grouped_federation(6, 480, 21, net_config(3));

  algorithms::FedAvg algo;
  const fl::RunResult r1 = algo.run(fed1, 3);
  const fl::RunResult r3 = algo.run(fed3, 3);

  ASSERT_EQ(r1.rounds.size(), r3.rounds.size());
  for (std::size_t i = 0; i < r1.rounds.size(); ++i) {
    EXPECT_EQ(r1.rounds[i].acc_mean, r3.rounds[i].acc_mean);
    EXPECT_EQ(r1.rounds[i].cum_upload, r3.rounds[i].cum_upload);
    EXPECT_EQ(r1.rounds[i].sim_seconds, r3.rounds[i].sim_seconds);
  }
  ASSERT_TRUE(fed1.network_enabled());
  EXPECT_EQ(fed1.network()->fingerprint(), fed3.network()->fingerprint());
  EXPECT_GT(r1.final_round().sim_seconds, 0.0);
}

TEST(FederationNet, CommMeterMatchesDeliveredBytesInLog) {
  auto [fed, groups] = make_grouped_federation(6, 480, 22, net_config(2));
  algorithms::FedAvg algo;
  algo.run(fed, 3);

  ASSERT_TRUE(fed.network_enabled());
  const DeliveredBytes view = delivered_bytes(fed.network()->log());
  EXPECT_EQ(fed.comm().total_download(), view.download);
  EXPECT_EQ(fed.comm().total_upload(), view.upload);
  EXPECT_GT(view.download, 0u);
  EXPECT_GT(view.upload, 0u);
}

TEST(FederationNet, DisabledNetworkKeepsBareByteAccounting) {
  fl::FederationConfig off;
  off.local.epochs = 1;
  off.local.sgd.lr = 0.05;
  auto [fed, groups] = make_grouped_federation(4, 320, 23, off);

  algorithms::FedAvg algo;
  algo.run(fed, 2);
  EXPECT_FALSE(fed.network_enabled());
  EXPECT_DOUBLE_EQ(fed.sim_time(), 0.0);
  // 4 clients x 2 rounds x a full model both ways, no framing overhead.
  const std::uint64_t model_bytes = fl::CommMeter::float_bytes(fed.model_size());
  EXPECT_EQ(fed.comm().total_download(), model_bytes * 8);
  EXPECT_EQ(fed.comm().total_upload(), model_bytes * 8);
}

TEST(FederationNet, FaultTrajectoryBitIdenticalAcrossKernelThreads) {
  // Fault injection + screening layered on top of dropout, stragglers,
  // and the simulated network must not disturb the determinism
  // contract: the whole trajectory (weights fingerprints, metrics,
  // event log, quarantine ledger) is a function of the seed alone.
  auto faulted = [](std::size_t kernel_threads) {
    fl::FederationConfig cfg = net_config(2);
    cfg.kernel_threads = kernel_threads;
    cfg.dropout = 0.1;
    cfg.faults.enabled = true;
    cfg.faults.crash_prob = 0.1;
    cfg.faults.stale_prob = 0.1;
    cfg.faults.nan_prob = 0.15;
    cfg.faults.sign_flip_prob = 0.1;
    cfg.robust.validate.enabled = true;
    return cfg;
  };
  auto [fed0, g0] = make_grouped_federation(6, 480, 25, faulted(0));
  auto [fed1, g1] = make_grouped_federation(6, 480, 25, faulted(1));
  auto [fed4, g4] = make_grouped_federation(6, 480, 25, faulted(4));

  algorithms::FedAvg algo;
  const fl::RunResult r0 = algo.run(fed0, 4);
  const fl::RunResult r1 = algo.run(fed1, 4);
  const fl::RunResult r4 = algo.run(fed4, 4);

  for (const fl::RunResult* r : {&r1, &r4}) {
    ASSERT_EQ(r0.rounds.size(), r->rounds.size());
    for (std::size_t i = 0; i < r0.rounds.size(); ++i) {
      EXPECT_EQ(r0.rounds[i].weights_fp, r->rounds[i].weights_fp) << i;
      EXPECT_EQ(r0.rounds[i].acc_mean, r->rounds[i].acc_mean) << i;
      EXPECT_EQ(r0.rounds[i].cum_upload, r->rounds[i].cum_upload) << i;
    }
  }
  ASSERT_TRUE(fed0.network_enabled());
  EXPECT_EQ(fed0.network()->fingerprint(), fed1.network()->fingerprint());
  EXPECT_EQ(fed0.network()->fingerprint(), fed4.network()->fingerprint());
  EXPECT_EQ(fed0.quarantine().strike_counts(),
            fed1.quarantine().strike_counts());
  EXPECT_EQ(fed0.quarantine().strike_counts(),
            fed4.quarantine().strike_counts());
}

TEST(FederationNet, StragglersShrinkTheAggregatedCohort) {
  fl::FederationConfig cfg = net_config(2);
  cfg.network.straggler_frac = 0.5;
  auto [fed, groups] = make_grouped_federation(6, 480, 24, cfg);

  const std::vector<float> w0 = fed.template_model().flat_weights();
  const std::vector<std::size_t> everyone{0, 1, 2, 3, 4, 5};
  const auto updates = fed.train_clients(
      everyone, 0, [&](std::size_t) { return std::span<const float>(w0); });
  EXPECT_EQ(updates.size(), 3u);  // ceil(0.5 * 6) on-time arrivals accepted
}

}  // namespace
}  // namespace fedclust::net
