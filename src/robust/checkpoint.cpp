#include "robust/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "nn/serialize.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fedclust::robust {
namespace {

namespace wire = nn::wire;

constexpr char kMagic[4] = {'F', 'C', 'K', 'P'};
// The one accepted layout: synchronous run state (comm as per-round
// series plus totals, no per-client attribution), the async scheduler
// block, per-round drift telemetry and the drift-detector block. Files
// stamped with any other version are refused.
constexpr std::uint32_t kVersion = 4;

void put_u64_vec(std::vector<std::uint8_t>& buf,
                 const std::vector<std::uint64_t>& v) {
  wire::put_u64(buf, static_cast<std::uint64_t>(v.size()));
  for (std::uint64_t x : v) wire::put_u64(buf, x);
}

std::vector<std::uint64_t> get_u64_vec(wire::Reader& r) {
  const std::uint64_t n = r.u64();
  FEDCLUST_CHECK(n <= r.remaining() / 8,
                 "checkpoint: implausible vector length " << n);
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.u64();
  return v;
}

void put_f32_vecs(std::vector<std::uint8_t>& buf,
                  const std::vector<std::vector<float>>& vecs) {
  wire::put_u64(buf, static_cast<std::uint64_t>(vecs.size()));
  for (const auto& v : vecs) {
    wire::put_u64(buf, static_cast<std::uint64_t>(v.size()));
    wire::put_f32(buf, v);
  }
}

std::vector<std::vector<float>> get_f32_vecs(wire::Reader& r) {
  const std::uint64_t n = r.u64();
  FEDCLUST_CHECK(n <= r.remaining(),
                 "checkpoint: implausible vector count " << n);
  std::vector<std::vector<float>> vecs(static_cast<std::size_t>(n));
  for (auto& v : vecs) {
    const std::uint64_t len = r.u64();
    FEDCLUST_CHECK(len <= r.remaining() / 4,
                   "checkpoint: implausible weight length " << len);
    v.resize(static_cast<std::size_t>(len));
    r.f32(v);
  }
  return vecs;
}

void put_dispatches(std::vector<std::uint8_t>& buf,
                    const std::vector<AsyncDispatchRecord>& records) {
  wire::put_u64(buf, static_cast<std::uint64_t>(records.size()));
  for (const AsyncDispatchRecord& d : records) {
    wire::put_u64(buf, d.seq);
    wire::put_u64(buf, d.client);
    wire::put_u64(buf, d.cluster);
    wire::put_u64(buf, d.version);
    wire::put_u32(buf, d.delivered ? 1 : 0);
    wire::put_f64(buf, d.finish);
    wire::put_u64(buf, d.attempts);
  }
}

std::vector<AsyncDispatchRecord> get_dispatches(wire::Reader& r) {
  const std::uint64_t n = r.u64();
  FEDCLUST_CHECK(n <= r.remaining(),
                 "checkpoint: implausible dispatch count " << n);
  std::vector<AsyncDispatchRecord> records(static_cast<std::size_t>(n));
  for (AsyncDispatchRecord& d : records) {
    d.seq = r.u64();
    d.client = r.u64();
    d.cluster = r.u64();
    d.version = r.u64();
    d.delivered = r.u32() != 0 ? 1 : 0;
    d.finish = r.f64();
    d.attempts = r.u64();
  }
  return records;
}

}  // namespace

void save_checkpoint(const RunCheckpoint& ck, const std::string& path) {
  std::vector<std::uint8_t> buf;
  wire::put_bytes(buf, kMagic, sizeof(kMagic));
  wire::put_u32(buf, kVersion);

  wire::put_u64(buf, ck.next_round);
  wire::put_u64(buf, ck.seed);
  put_u64_vec(buf, ck.labels);
  put_f32_vecs(buf, ck.cluster_weights);
  put_f32_vecs(buf, ck.partial_weights);

  wire::put_u64(buf, static_cast<std::uint64_t>(ck.rounds.size()));
  for (const RoundRecord& m : ck.rounds) {
    wire::put_u64(buf, m.round);
    wire::put_f64(buf, m.acc_mean);
    wire::put_f64(buf, m.acc_std);
    wire::put_f64(buf, m.train_loss);
    wire::put_u64(buf, m.cum_upload);
    wire::put_u64(buf, m.cum_download);
    wire::put_u64(buf, m.num_clusters);
    wire::put_f64(buf, m.sim_seconds);
    wire::put_u64(buf, m.weights_fp);
    wire::put_f64(buf, m.drift_score);
    wire::put_u64(buf, m.drift_alarms);
    wire::put_u64(buf, m.reclusters);
  }

  put_u64_vec(buf, ck.comm.round_download);
  put_u64_vec(buf, ck.comm.round_upload);
  wire::put_u64(buf, ck.comm.total_download);
  wire::put_u64(buf, ck.comm.total_upload);

  wire::put_u32(buf, ck.net.present ? 1 : 0);
  wire::put_f64(buf, ck.net.clock);
  wire::put_u64(buf, static_cast<std::uint64_t>(ck.net.log.size()));
  for (const net::Event& e : ck.net.log) {
    wire::put_f64(buf, e.time);
    wire::put_u64(buf, e.seq);
    wire::put_u32(buf, static_cast<std::uint32_t>(e.kind));
    wire::put_u32(buf, e.round);
    wire::put_u32(buf, e.client);
    wire::put_u32(buf, e.attempt);
    wire::put_u64(buf, e.bytes);
  }

  put_u64_vec(buf, ck.quarantine_counts);
  wire::put_u64(buf, ck.quarantine_max_strikes);

  // Async scheduler block.
  wire::put_u32(buf, ck.async.present ? 1 : 0);
  wire::put_u64(buf, ck.async.first_round);
  wire::put_u64(buf, ck.async.flushes);
  wire::put_u64(buf, ck.async.next_seq);
  put_u64_vec(buf, ck.async.versions);
  put_u64_vec(buf, ck.async.ready);
  put_dispatches(buf, ck.async.inflight);
  put_dispatches(buf, ck.async.buffered);
  wire::put_u64(buf, static_cast<std::uint64_t>(ck.async.starts.size()));
  for (const AsyncStartRecord& s : ck.async.starts) {
    wire::put_u64(buf, s.cluster);
    wire::put_u64(buf, s.version);
    wire::put_u64(buf, static_cast<std::uint64_t>(s.weights.size()));
    wire::put_f32(buf, s.weights);
  }

  // Drift-detector block.
  wire::put_u32(buf, ck.drift.present ? 1 : 0);
  wire::put_u64(buf, ck.drift.recoveries);
  wire::put_u64(buf, ck.drift.cooldown);
  wire::put_f64(buf, ck.drift.threshold);
  put_u64_vec(buf, ck.drift.streaks);
  wire::put_u64(buf, static_cast<std::uint64_t>(ck.drift.windows.size()));
  for (const std::vector<double>& w : ck.drift.windows) {
    wire::put_u64(buf, static_cast<std::uint64_t>(w.size()));
    for (double x : w) wire::put_f64(buf, x);
  }

  // Integrity trailer over everything written above (magic included).
  wire::put_u32(buf, crc32(buf.data(), buf.size()));

  std::ofstream out(path, std::ios::binary);
  FEDCLUST_CHECK(out.good(), "cannot open " << path << " for writing");
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  FEDCLUST_CHECK(out.good(), "write to " << path << " failed");
}

RunCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FEDCLUST_CHECK(in.good(), "cannot open checkpoint " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(buf.data()), size);
  FEDCLUST_CHECK(in.good(), "read from " << path << " failed");

  FEDCLUST_CHECK(buf.size() >= sizeof(kMagic) + 8,
                 path << " is too small to be a checkpoint");
  // Verify the CRC trailer before trusting any field.
  wire::Reader trailer(
      std::span<const std::uint8_t>(buf).subspan(buf.size() - 4));
  const std::uint32_t stored = trailer.u32();
  const std::uint32_t actual = crc32(buf.data(), buf.size() - 4);
  FEDCLUST_CHECK(stored == actual,
                 "checkpoint " << path << " is corrupted: crc " << std::hex
                               << actual << " != stored " << stored);

  wire::Reader r(std::span<const std::uint8_t>(buf.data(), buf.size() - 4));
  char magic[4];
  r.raw(magic, sizeof(magic));
  FEDCLUST_CHECK(std::memcmp(magic, kMagic, 4) == 0,
                 path << " is not a fedclust run checkpoint");
  const std::uint32_t version = r.u32();
  FEDCLUST_CHECK(version == kVersion,
                 "unsupported checkpoint version " << version);

  RunCheckpoint ck;
  ck.next_round = r.u64();
  ck.seed = r.u64();
  ck.labels = get_u64_vec(r);
  ck.cluster_weights = get_f32_vecs(r);
  ck.partial_weights = get_f32_vecs(r);

  const std::uint64_t num_rounds = r.u64();
  FEDCLUST_CHECK(num_rounds <= r.remaining(),
                 "checkpoint: implausible round count " << num_rounds);
  ck.rounds.resize(static_cast<std::size_t>(num_rounds));
  for (RoundRecord& m : ck.rounds) {
    m.round = r.u64();
    m.acc_mean = r.f64();
    m.acc_std = r.f64();
    m.train_loss = r.f64();
    m.cum_upload = r.u64();
    m.cum_download = r.u64();
    m.num_clusters = r.u64();
    m.sim_seconds = r.f64();
    m.weights_fp = r.u64();
    m.drift_score = r.f64();
    m.drift_alarms = r.u64();
    m.reclusters = r.u64();
  }

  ck.comm.round_download = get_u64_vec(r);
  ck.comm.round_upload = get_u64_vec(r);
  ck.comm.total_download = r.u64();
  ck.comm.total_upload = r.u64();

  ck.net.present = r.u32() != 0;
  ck.net.clock = r.f64();
  const std::uint64_t num_events = r.u64();
  FEDCLUST_CHECK(num_events <= r.remaining(),
                 "checkpoint: implausible event count " << num_events);
  ck.net.log.resize(static_cast<std::size_t>(num_events));
  for (net::Event& e : ck.net.log) {
    e.time = r.f64();
    e.seq = r.u64();
    const std::uint32_t kind = r.u32();
    FEDCLUST_CHECK(kind >= 1 && kind <= 9,
                   "checkpoint: invalid event kind " << kind);
    e.kind = static_cast<net::EventKind>(kind);
    e.round = r.u32();
    e.client = r.u32();
    e.attempt = r.u32();
    e.bytes = r.u64();
  }

  ck.quarantine_counts = get_u64_vec(r);
  ck.quarantine_max_strikes = r.u64();

  ck.async.present = r.u32() != 0;
  ck.async.first_round = r.u64();
  ck.async.flushes = r.u64();
  ck.async.next_seq = r.u64();
  ck.async.versions = get_u64_vec(r);
  ck.async.ready = get_u64_vec(r);
  ck.async.inflight = get_dispatches(r);
  ck.async.buffered = get_dispatches(r);
  const std::uint64_t num_starts = r.u64();
  FEDCLUST_CHECK(num_starts <= r.remaining(),
                 "checkpoint: implausible start count " << num_starts);
  ck.async.starts.resize(static_cast<std::size_t>(num_starts));
  for (AsyncStartRecord& s : ck.async.starts) {
    s.cluster = r.u64();
    s.version = r.u64();
    const std::uint64_t len = r.u64();
    FEDCLUST_CHECK(len <= r.remaining() / 4,
                   "checkpoint: implausible start length " << len);
    s.weights.resize(static_cast<std::size_t>(len));
    r.f32(s.weights);
  }

  ck.drift.present = r.u32() != 0;
  ck.drift.recoveries = r.u64();
  ck.drift.cooldown = r.u64();
  ck.drift.threshold = r.f64();
  ck.drift.streaks = get_u64_vec(r);
  const std::uint64_t num_windows = r.u64();
  FEDCLUST_CHECK(num_windows <= r.remaining(),
                 "checkpoint: implausible window count " << num_windows);
  ck.drift.windows.resize(static_cast<std::size_t>(num_windows));
  for (std::vector<double>& w : ck.drift.windows) {
    const std::uint64_t len = r.u64();
    FEDCLUST_CHECK(len <= r.remaining() / 8,
                   "checkpoint: implausible window length " << len);
    w.resize(static_cast<std::size_t>(len));
    for (double& x : w) x = r.f64();
  }
  FEDCLUST_CHECK(r.remaining() == 0,
                 "checkpoint " << path << " has " << r.remaining()
                               << " trailing bytes");
  return ck;
}

}  // namespace fedclust::robust
