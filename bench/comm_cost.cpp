// Reproduces the paper's communication-cost claim (abstract + §III):
// FedClust forms clusters in ONE communication round uploading only
// final-layer weights, whereas iterative CFL/IFCA keep paying full-model
// traffic while clusters stabilize, and IFCA additionally multiplies the
// download by k.
//
// For every method we report, on the grouped two-cluster workload:
//   * bytes uploaded/downloaded during cluster formation,
//   * total traffic for the whole run,
//   * rounds and bytes to reach a target accuracy,
//   * and, under a simulated network profile, the simulated wall-clock
//     seconds to reach the target (time-to-accuracy) plus total
//     simulated time — the axis where byte savings turn into speed.
//
// With --codec the bench switches to the update-compression sweep: every
// (algorithm × upload codec) cell runs the standard Dirichlet benchmark
// with the network simulator off, so the meter reports exact encoded
// bytes, and the per-algorithm bytes-vs-accuracy Pareto front lands in
// BENCH_compress.json (identity is always run first as the baseline).
//
//   ./comm_cost [--rounds 12] [--clients 20] [--target 0.6]
//               [--profile lan|wan|cellular|heterogeneous|none|all]
//               [--straggler 1.0]
//   ./comm_cost --codec all [--beta 0.1] [--out BENCH_compress.json]
//   ./comm_cost --codec int8,topk ...
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compress/codec.hpp"
#include "net/link.hpp"
#include "utils/cli.hpp"
#include "utils/error.hpp"
#include "utils/table.hpp"

using namespace fedclust;

namespace {

/// Parses --codec: "all", or a comma list of codec names. Identity is
/// forced in front as the reduction/accuracy baseline row.
std::vector<compress::CodecKind> parse_codecs(const std::string& arg) {
  using compress::CodecKind;
  if (arg == "all") {
    return {CodecKind::kIdentity, CodecKind::kInt8,    CodecKind::kInt4,
            CodecKind::kTopK,     CodecKind::kSignSgd, CodecKind::kDelta};
  }
  std::vector<CodecKind> codecs = {CodecKind::kIdentity};
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    CodecKind kind;
    FEDCLUST_REQUIRE(compress::codec_from_string(tok, &kind),
                     "unknown codec '" << tok
                                       << "' (want identity, int8, int4, "
                                          "topk, sign, or delta)");
    if (kind != CodecKind::kIdentity) codecs.push_back(kind);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return codecs;
}

/// One (algorithm, upload codec) cell of the --codec sweep; kept as a
/// struct because the Pareto marks are computed across an algorithm's
/// cells before they are written.
struct CodecCell {
  std::string algorithm;
  std::string codec;
  std::uint64_t upload_bytes = 0;    ///< whole-run encoded upload traffic
  std::uint64_t download_bytes = 0;  ///< whole-run download traffic
  /// identity-codec upload bytes / this codec's upload bytes (>= 1 means
  /// the codec saved traffic; identity itself is exactly 1).
  double upload_reduction = 1.0;
  double acc_mean = 0.0;  ///< final mean per-client accuracy
  double acc_std = 0.0;
  /// Accuracy points relative to the same algorithm's identity run
  /// (negative = the codec cost accuracy).
  double acc_delta_pts = 0.0;
  /// On the per-algorithm Pareto front: no other codec for this
  /// algorithm uploads fewer (or equal) bytes AND reaches at least this
  /// accuracy, with one of the two strict.
  bool pareto = false;
};

std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f kB", b / 1e3);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("comm_cost",
                "Communication cost: one-shot FedClust vs iterative CFL");
  cli.add_int("rounds", 12, "communication rounds per run");
  cli.add_int("clients", 20, "number of clients");
  cli.add_int("pool", 1200, "total training samples");
  cli.add_double("target", 0.6, "accuracy target for rounds-to-target");
  cli.add_int("seed", 3, "random seed");
  cli.add_string("profile", "lan",
                 "network profile: none, lan, wan, cellular, heterogeneous, "
                 "or all");
  cli.add_double("straggler", 1.0,
                 "fraction of uploads a simulated round waits for");
  cli.add_string("codec", "none",
                 "update-compression sweep: none, all, or a comma list of "
                 "identity,int8,int4,topk,sign,delta");
  cli.add_double("beta", 0.1,
                 "Dirichlet concentration for the --codec sweep");
  cli.add_string("out", "BENCH_compress.json",
                 "JSON output path for the --codec sweep");
  cli.add_flag("quick", "tiny configuration for smoke runs");
  cli.parse(argc, argv);

  const bool quick = cli.get_flag("quick");
  bench::Scenario s;
  s.dataset = data::SyntheticKind::kFmnist;
  s.num_clients =
      quick ? std::size_t{8} : static_cast<std::size_t>(cli.get_int("clients"));
  s.dirichlet_beta = -1.0;  // grouped two-cluster workload
  s.pool_samples =
      quick ? std::size_t{400} : static_cast<std::size_t>(cli.get_int("pool"));
  s.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  s.engine.local.epochs = 1;
  s.engine.local.batch_size = 32;
  s.engine.local.sgd.lr = 0.02;
  s.engine.local.sgd.momentum = 0.9;
  s.engine.eval_every = 1;  // per-round accuracy for rounds-to-target

  const auto rounds =
      quick ? std::size_t{5} : static_cast<std::size_t>(cli.get_int("rounds"));
  const double target = cli.get_double("target");

  // -- update-compression sweep ---------------------------------------------
  const std::string codec_arg = cli.get_string("codec");
  if (codec_arg != "none") {
    const std::vector<compress::CodecKind> codecs = parse_codecs(codec_arg);

    // The standard Dirichlet benchmark, network off: CommMeter reports
    // exact encoded bytes, trajectories match the weights_fp tests.
    bench::Scenario sweep = s;
    sweep.dirichlet_beta = cli.get_double("beta");

    // A representative slice of the zoo: a plain averager, a proximal
    // variant, the k-model iterative clusterer, and the paper's one-shot
    // method. (All six algorithms route through the same transport; four
    // keeps the 4-codec × 4-algorithm grid affordable.)
    auto zoo = bench::make_algorithms(/*expected_clusters=*/2);
    std::vector<std::unique_ptr<fl::Algorithm>> algos;
    for (auto& algo : zoo) {
      const std::string n = algo->name();
      if (n == "FedAvg" || n == "FedProx" || n == "IFCA" || n == "FedClust") {
        algos.push_back(std::move(algo));
      }
    }

    TextTable table({"Method", "Codec", "Upload", "Download", "Upload redux",
                     "Final acc (%)", "dAcc (pts)", "Pareto"});
    std::vector<bench::JsonRow> results;
    for (auto& algo : algos) {
      std::vector<CodecCell> rows;
      std::uint64_t identity_up = 0;
      double identity_acc = 0.0;
      for (compress::CodecKind kind : codecs) {
        bench::Scenario sp = sweep;
        sp.engine.compression.enabled = true;
        sp.engine.compression.upload = kind;
        sp.engine.compression.download = compress::CodecKind::kIdentity;

        fl::Federation fed = bench::make_federation(sp);
        const fl::RunResult r = algo->run(fed, rounds);

        CodecCell row;
        row.algorithm = algo->name();
        row.codec = compress::to_string(kind);
        row.upload_bytes = fed.comm().total_upload();
        row.download_bytes = fed.comm().total_download();
        row.acc_mean = r.final_accuracy.mean;
        row.acc_std = r.final_accuracy.std;
        if (kind == compress::CodecKind::kIdentity) {
          identity_up = row.upload_bytes;
          identity_acc = row.acc_mean;
        }
        row.upload_reduction =
            row.upload_bytes == 0
                ? 1.0
                : static_cast<double>(identity_up) /
                      static_cast<double>(row.upload_bytes);
        row.acc_delta_pts = 100.0 * (row.acc_mean - identity_acc);
        rows.push_back(row);
        std::fprintf(stderr, "[codec] %-8s / %-8s done (%.2f%%, %s up)\n",
                     row.algorithm.c_str(), row.codec.c_str(),
                     100.0 * row.acc_mean,
                     human_bytes(static_cast<double>(row.upload_bytes))
                         .c_str());
      }
      // Per-algorithm Pareto front over (upload bytes down, accuracy up).
      for (std::size_t i = 0; i < rows.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < rows.size() && !dominated; ++j) {
          if (j == i) continue;
          dominated = rows[j].upload_bytes <= rows[i].upload_bytes &&
                      rows[j].acc_mean >= rows[i].acc_mean &&
                      (rows[j].upload_bytes < rows[i].upload_bytes ||
                       rows[j].acc_mean > rows[i].acc_mean);
        }
        rows[i].pareto = !dominated;
      }
      for (const CodecCell& row : rows) {
        table.new_row()
            .add(row.algorithm)
            .add(row.codec)
            .add(human_bytes(static_cast<double>(row.upload_bytes)))
            .add(human_bytes(static_cast<double>(row.download_bytes)))
            .add(row.upload_reduction, 2)
            .add(100.0 * row.acc_mean, 2)
            .add(row.acc_delta_pts, 2)
            .add(row.pareto ? "yes" : "");
        results.push_back(bench::JsonRow()
                              .add("algorithm", row.algorithm)
                              .add("codec", row.codec)
                              .add("rounds", rounds)
                              .add("upload_bytes", row.upload_bytes)
                              .add("download_bytes", row.download_bytes)
                              .add("upload_reduction", row.upload_reduction)
                              .add("acc_mean", row.acc_mean)
                              .add("acc_std", row.acc_std)
                              .add("acc_delta_pts", row.acc_delta_pts)
                              .add("pareto", row.pareto));
      }
    }

    std::printf("\nUpdate compression — Dirichlet(%.2f) workload (FMNIST "
                "stand-in), %zu clients, %zu rounds, network off (exact "
                "encoded bytes)\n\n",
                sweep.dirichlet_beta, sweep.num_clients, rounds);
    std::printf("%s\n", table.to_string().c_str());

    const std::string out_path = cli.get_string("out");
    bench::write_json_rows(out_path, results);
    std::printf("wrote %zu cells to %s\n", results.size(), out_path.c_str());
    return 0;
  }

  std::vector<std::string> profiles;
  const std::string profile_arg = cli.get_string("profile");
  if (profile_arg == "all") {
    profiles.push_back("none");
    for (net::Profile p : net::all_profiles()) {
      profiles.emplace_back(net::to_string(p));
    }
  } else {
    profiles.push_back(profile_arg);  // validated below (or "none")
  }

  for (const std::string& profile : profiles) {
    const bool simulated = profile != "none";
    bench::Scenario sp = s;
    if (simulated) {
      sp.engine.network.enabled = true;
      sp.engine.network.profile = net::profile_from_string(profile);
      sp.engine.network.straggler_frac = cli.get_double("straggler");
    }

    TextTable table({"Method", "Formation upload", "Formation download",
                     "Total upload", "Total download", "Rounds to target",
                     "Bytes to target", "Time to target", "Sim total (s)",
                     "Final acc (%)"});

    auto algorithms = bench::make_algorithms(/*expected_clusters=*/2);
    for (auto& algo : algorithms) {
      fl::Federation fed = bench::make_federation(sp);
      const fl::RunResult r = algo->run(fed, rounds);

      // "Formation" = round 0 for the one-shot methods; for the iterative
      // ones it is simply their first-round traffic (they never stop
      // paying full price, which is the point of the comparison).
      const auto& up = fed.comm().round_upload();
      const auto& down = fed.comm().round_download();

      std::size_t hit_round = 0;
      std::uint64_t hit_bytes = 0;
      const bool reached = r.rounds_to_accuracy(target, hit_round, hit_bytes);
      double hit_seconds = 0.0;
      const bool timed =
          simulated && r.time_to_accuracy(target, hit_seconds);
      char seconds_buf[32] = "-";
      if (timed) {
        std::snprintf(seconds_buf, sizeof(seconds_buf), "%.1f s",
                      hit_seconds);
      }

      table.new_row()
          .add(algo->name())
          .add(human_bytes(static_cast<double>(up.empty() ? 0 : up[0])))
          .add(human_bytes(static_cast<double>(down.empty() ? 0 : down[0])))
          .add(human_bytes(static_cast<double>(fed.comm().total_upload())))
          .add(human_bytes(static_cast<double>(fed.comm().total_download())))
          .add(reached ? std::to_string(hit_round + 1) : std::string("-"))
          .add(reached ? human_bytes(static_cast<double>(hit_bytes))
                       : std::string("-"))
          .add(seconds_buf)
          .add(simulated ? fed.sim_time() : 0.0, 1)
          .add(100.0 * r.final_accuracy.mean, 2);

      std::fprintf(stderr, "[comm] %-8s / %-13s done (final %.2f%%)\n",
                   algo->name().c_str(), profile.c_str(),
                   100.0 * r.final_accuracy.mean);
    }

    std::printf("\nCommunication cost — grouped 2-cluster workload (FMNIST "
                "stand-in), %zu clients, %zu rounds, target %.0f%%\n",
                sp.num_clients, rounds, 100.0 * target);
    if (simulated) {
      std::printf("network profile: %s (straggler cutoff %.0f%%)\n\n",
                  profile.c_str(), 100.0 * sp.engine.network.straggler_frac);
    } else {
      std::printf("network: disabled (bare float32 byte accounting)\n\n");
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf(
      "\nexpected shape (paper): FedClust's formation round uploads only "
      "the\nfinal layer (~%.1fx smaller than a full model); IFCA downloads "
      "k models per round; CFL needs many full rounds before clusters "
      "stabilize.\n",
      61706.0 / 850.0);  // LeNet-5 total vs final-layer weights
  return 0;
}
