// Async vs sync time-to-accuracy under stragglers (the tentpole bench).
//
// Sweeps {sync, async K ∈ {2, 4, 6}} × {lan, cellular, heterogeneous}
// × {FedAvg, FedClust} on a two-group FMNIST-emulation fleet. A cluster
// flushes at min(K, live members), so every K sits below the smallest
// cluster FedClust forms on this fleet; the bench refuses a K whose
// per-cluster flush sizes coincide with another K's (it would measure
// the same run twice). Sync
// rounds on the straggler profiles close after the fastest 50% of
// uploads (the straggler_demo setting); the async engine has no round
// barrier at all — per-cluster buffers flush as soon as K updates
// arrive, so fast clients keep contributing while stragglers grind.
// The axis is net::Simulator virtual time: seconds until the mean
// per-client accuracy first reaches the target.
//
// Emits BENCH_async.json; the headline (quoted in EXPERIMENTS.md E9) is
// async FedClust's speedup over sync FedClust on cellular/50%.
//
//   ./build/bench/async_throughput [--quick] [--out BENCH_async.json]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>

#include "bench_common.hpp"
#include "cluster/hierarchical.hpp"
#include "core/fedclust.hpp"
#include "fl/async.hpp"
#include "nn/models.hpp"

using namespace fedclust;

namespace {

struct Options {
  bool quick = false;
  std::string out = "BENCH_async.json";
};

constexpr std::size_t kClients = 12;
constexpr double kTarget = 0.55;
constexpr std::size_t kSyncRounds = 40;

fl::Federation build_federation(net::Profile profile, std::uint64_t seed) {
  const data::SyntheticGenerator generator(data::SyntheticKind::kFmnist,
                                           seed);
  Rng data_rng = Rng(seed).split(1);
  const data::Dataset pool = generator.generate(720, data_rng);

  Rng part_rng = Rng(seed).split(2);
  // Skewed within-group shards (Dir 1.0): stragglers hold label mass the
  // fast clients lack, so a cutoff that perpetually drops them starves
  // part of the distribution — the regime async aggregation targets.
  const partition::Partition part = partition::grouped_label_partition(
      pool, kClients, {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, part_rng,
      /*within_group_beta=*/1.0);

  Rng split_rng = Rng(seed).split(3);
  std::vector<fl::ClientData> clients;
  for (const auto& ds : partition::materialize(pool, part)) {
    auto [train, test] = ds.stratified_split(0.25, split_rng);
    if (test.empty()) test = train;
    clients.push_back({std::move(train), std::move(test)});
  }

  nn::Model model = nn::mlp(generator.image_spec(), 48);
  Rng init_rng = Rng(seed).split(4);
  model.init_params(init_rng);

  fl::FederationConfig config;
  config.local.epochs = 1;
  config.local.batch_size = 32;
  config.local.sgd.lr = 0.05;
  config.local.sgd.momentum = 0.9;
  config.seed = seed;
  config.eval_every = 1;
  config.network.enabled = true;
  config.network.profile = profile;
  // The straggler scenario: rounds on the slow profiles wait only for
  // the fastest half of the expected uploads. LAN keeps the full
  // barrier (no tail to cut).
  config.network.straggler_frac = profile == net::Profile::kLan ? 1.0 : 0.5;
  return fl::Federation(std::move(model), std::move(clients), config);
}

bench::AsyncBenchResult summarize(const std::string& algorithm,
                                  const std::string& mode,
                                  const std::string& profile,
                                  std::size_t buffer_k, std::size_t rounds,
                                  const fl::RunResult& result,
                                  const fl::Federation& fed) {
  bench::AsyncBenchResult r;
  r.algorithm = algorithm;
  r.mode = mode;
  r.profile = profile;
  r.buffer_k = buffer_k;
  r.rounds = rounds;
  r.target_acc = kTarget;
  r.reached = result.time_to_accuracy(kTarget, r.seconds_to_target);
  r.seconds_total = fed.sim_time();
  r.final_acc = result.final_accuracy.mean;
  r.upload_mb = static_cast<double>(fed.comm().total_upload()) / 1e6;
  r.download_mb = static_cast<double>(fed.comm().total_download()) / 1e6;
  return r;
}

fl::RunResult run_sync(const std::string& algorithm, fl::Federation& fed,
                       std::size_t rounds) {
  if (algorithm == "FedClust") {
    core::FedClust algo(core::FedClustConfig{.warmup_epochs = 1});
    return algo.run(fed, rounds);
  }
  algorithms::FedAvg algo;
  return algo.run(fed, rounds);
}

fl::RunResult run_buffered(const std::string& algorithm, fl::Federation& fed,
                           std::size_t buffer_k, std::size_t flushes) {
  fl::AsyncConfig ac;
  ac.buffer_k = buffer_k;
  ac.staleness_fn = fl::StalenessKind::kPolynomial;
  ac.staleness_exponent = 0.5;
  if (algorithm == "FedClust") {
    core::FedClust algo(core::FedClustConfig{.warmup_epochs = 1});
    return fl::run_async(fed, algo, ac, flushes);
  }
  algorithms::FedAvg algo;
  return fl::run_async(fed, algo, ac, flushes);
}

/// Per-cluster flush sizes the engine used for buffer `k`: min(k, cluster
/// size) — no faults or quarantine on this fleet, so membership is the
/// final labeling.
std::vector<std::size_t> flush_sizes(std::size_t k,
                                     const std::vector<std::size_t>& labels) {
  std::vector<std::size_t> sizes(cluster::num_clusters(labels), 0);
  for (const std::size_t l : labels) ++sizes[l];
  for (std::size_t& s : sizes) s = std::min(k, s);
  return sizes;
}

/// Flush budget matching the sync runs' update budget (rounds × fleet),
/// padded 1.5× so a mode is never cut off just short of the target.
std::size_t flush_budget(std::size_t buffer_k, std::size_t sync_rounds) {
  const std::size_t per_flush = std::min(buffer_k, kClients);
  const std::size_t updates = sync_rounds * kClients;
  return (3 * updates) / (2 * per_flush) + 1;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: async_throughput [--quick] [--out FILE]\n");
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::uint64_t seed = 17;

  const std::vector<net::Profile> profiles =
      opt.quick ? std::vector<net::Profile>{net::Profile::kCellular}
                : std::vector<net::Profile>{net::Profile::kLan,
                                            net::Profile::kCellular,
                                            net::Profile::kHeterogeneous};
  const std::vector<std::size_t> buffer_ks =
      opt.quick ? std::vector<std::size_t>{4}
                : std::vector<std::size_t>{2, 4, 6};
  const std::size_t sync_rounds = opt.quick ? 4 : kSyncRounds;

  std::printf("async_throughput: %zu clients, target %.0f%% mean accuracy\n\n",
              kClients, 100.0 * kTarget);
  std::printf("%-9s %-9s %-14s %7s %9s %13s %11s %9s\n", "algo", "mode",
              "profile", "rounds", "final%", "s to tgt", "speedup",
              "up MB");

  std::vector<bench::AsyncBenchResult> results;
  double headline = 0.0;
  for (const std::string algorithm : {"FedAvg", "FedClust"}) {
    for (const net::Profile profile : profiles) {
      const std::string pname = net::to_string(profile);

      fl::Federation sync_fed = build_federation(profile, seed);
      const fl::RunResult sync_res =
          run_sync(algorithm, sync_fed, sync_rounds);
      bench::AsyncBenchResult sync_row =
          summarize(algorithm, "sync", pname, 0, sync_rounds, sync_res,
                    sync_fed);
      sync_row.speedup_vs_sync = 1.0;
      results.push_back(sync_row);

      std::vector<std::vector<std::size_t>> measured;
      for (const std::size_t k : buffer_ks) {
        const std::size_t flushes = flush_budget(k, sync_rounds);
        fl::Federation fed = build_federation(profile, seed);
        const fl::RunResult res = run_buffered(algorithm, fed, k, flushes);
        std::vector<std::size_t> sizes = flush_sizes(k, res.cluster_labels);
        if (std::find(measured.begin(), measured.end(), sizes) !=
            measured.end()) {
          std::fprintf(stderr,
                       "async_throughput: K=%zu clamps onto a smaller K for "
                       "%s/%s (every cluster flushes at its size); sweep "
                       "only K below the smallest cluster\n",
                       k, algorithm.c_str(), pname.c_str());
          return 2;
        }
        measured.push_back(std::move(sizes));
        bench::AsyncBenchResult row =
            summarize(algorithm, "async_k" + std::to_string(k), pname, k,
                      flushes, res, fed);
        if (sync_row.reached && row.reached && row.seconds_to_target > 0.0) {
          row.speedup_vs_sync =
              sync_row.seconds_to_target / row.seconds_to_target;
        }
        if (algorithm == "FedClust" && profile == net::Profile::kCellular) {
          headline = std::max(headline, row.speedup_vs_sync);
        }
        results.push_back(row);
      }
    }
  }

  for (const bench::AsyncBenchResult& r : results) {
    char secs[32] = "-";
    char speed[32] = "-";
    if (r.reached) {
      std::snprintf(secs, sizeof(secs), "%.1f", r.seconds_to_target);
    }
    if (r.speedup_vs_sync > 0.0) {
      std::snprintf(speed, sizeof(speed), "%.2fx", r.speedup_vs_sync);
    }
    std::printf("%-9s %-9s %-14s %7zu %8.1f%% %13s %11s %9.1f\n",
                r.algorithm.c_str(), r.mode.c_str(), r.profile.c_str(),
                r.rounds, 100.0 * r.final_acc, secs, speed, r.upload_mb);
  }

  bench::write_async_bench_json(opt.out, results);
  std::printf("\nwrote %s\n", opt.out.c_str());
  if (!opt.quick) {
    std::printf("headline: async FedClust vs sync FedClust on cellular/50%% "
                "stragglers: %.2fx faster to %.0f%% accuracy\n",
                headline, 100.0 * kTarget);
    if (headline < 2.0) {
      std::printf("WARNING: headline below the 2x acceptance threshold\n");
      return 1;
    }
  }
  return 0;
}
