// Million-client fleet scaling: lazy client virtualization + model-clone
// pooling + two-level edge aggregation, swept across fleet sizes.
//
// Each stage builds a VirtualFleet of N Dirichlet-skewed clients (resident
// state: per-client label histograms, never pixels), samples 1% per round,
// trains the cohort through Federation::train_clients_folded (edge tree,
// bit-identical to flat FedAvg), and records peak/current RSS, round
// wall-clock, cohort accuracy, and comm bytes into BENCH_fleet.json. The
// headline claim: one million clients at 1% participation in bounded,
// sub-linear-in-fleet memory.
//
//   ./fleet_scale                      # sweep 1k -> 1M clients
//   ./fleet_scale --clients 100000 --rounds 2 --max-rss-mb 1500
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/audit.hpp"
#include "fl/federation.hpp"
#include "fl/streaming.hpp"
#include "fl/virtual_fleet.hpp"
#include "net/topology.hpp"
#include "nn/models.hpp"
#include "utils/cli.hpp"
#include "utils/histogram.hpp"
#include "utils/table.hpp"

using namespace fedclust;

namespace {

/// Runs one fleet size, adds its summary line to `table` and returns its
/// BENCH_fleet.json record.
bench::JsonRow run_stage(std::size_t fleet_size, std::size_t rounds,
                         double participation, std::size_t edges,
                         std::size_t samples_per_client, std::size_t hidden,
                         std::size_t eval_clients, std::size_t threads,
                         double max_rss_mb, std::uint64_t seed,
                         data::SyntheticKind dataset, TextTable& table) {
  fl::VirtualFleetSpec spec;
  spec.dataset = dataset;
  spec.num_clients = fleet_size;
  spec.samples_per_client = samples_per_client;
  spec.seed = seed;
  auto source = std::make_shared<fl::VirtualFleet>(spec);

  nn::Model model = nn::mlp(source->image_spec(), hidden);
  Rng init_rng = Rng(seed).split(104);
  model.init_params(init_rng);

  fl::FederationConfig cfg;
  cfg.participation = participation;
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 16;
  fl::Federation fed(std::move(model), source, cfg);

  const net::EdgeTopology topo{edges};
  std::vector<float> global = fed.template_model().flat_weights();
  fl::StreamingRunStats stats;
  utils::StreamingHistogram round_hist;  // wall-clock tail, not just mean
  std::uint64_t server_link = 0;
  std::uint64_t flat_link = 0;
  std::size_t last_cohort = 0;

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::size_t> cohort = fed.sample_clients(r);
    last_cohort = cohort.size();
    fed.comm().begin_round(r);
    for (const std::size_t c : cohort) {
      fed.meter_download(c, fed.model_size());
    }
    const auto weights_for = [&](std::size_t) {
      return std::span<const float>(global);
    };
    fl::Federation::FoldResult fr =
        fed.train_clients_folded(cohort, r, weights_for, topo, nullptr,
                                 nullptr, global);
    for (const std::size_t c : fr.contributors) {
      fed.meter_upload(c, fed.model_size());
    }
    if (!fr.weights.empty()) global = std::move(fr.weights);
    server_link += topo.server_link_floats(fr.contributors.size(),
                                           fed.model_size());
    flat_link += fr.contributors.size() * fed.model_size();

    // Streamed cohort evaluation on a bounded slice — never the fleet.
    std::vector<std::size_t> eval_ids(
        cohort.begin(),
        cohort.begin() +
            std::min<std::size_t>(eval_clients, cohort.size()));
    const fl::AccuracySummary acc = fed.evaluate_cohort(eval_ids, weights_for);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats.record(acc.mean, fr.mean_train_loss, wall_ms,
                 check::weights_fingerprint(global));
    round_hist.record(wall_ms);
    bench::require_max_rss(max_rss_mb);
    std::printf("  round %zu: cohort %zu, acc %.4f, loss %.4f, %.0f ms, "
                "rss %.0f MiB\n",
                r, cohort.size(), acc.mean, fr.mean_train_loss, wall_ms,
                bench::current_rss_mb());
  }

  const double round_ms_mean = stats.round_wall_ms.mean();
  const double acc_mean_last =
      stats.acc_mean.count() > 0 ? stats.acc_mean.mean() : 0.0;
  const double vm_rss_mb = bench::current_rss_mb();
  const double vm_hwm_mb = bench::peak_rss_mb();

  // Root-link float32 traffic per round: edges × model (tree) vs
  // cohort × model (flat) — the fan-in reduction the tree buys.
  const double per_round = rounds > 0 ? static_cast<double>(rounds) : 1.0;
  char link[64];
  std::snprintf(link, sizeof(link), "%.2e vs %.2e",
                static_cast<double>(server_link) / per_round,
                static_cast<double>(flat_link) / per_round);
  table.new_row()
      .add(static_cast<long long>(fleet_size))
      .add(static_cast<long long>(last_cohort))
      .add(round_ms_mean, 1)
      .add(round_hist.p99(), 1)
      .add(acc_mean_last, 4)
      .add(vm_rss_mb, 0)
      .add(vm_hwm_mb, 0)
      .add(std::string(link));

  // Round percentiles are StreamingHistogram estimates (±2% relative);
  // weights_fp_chain is the FNV-1a chain of round fingerprints.
  return bench::JsonRow()
      .add("clients", fleet_size)
      .add("cohort", last_cohort)
      .add("rounds", rounds)
      .add("edges", edges)
      .add("round_ms_mean", round_ms_mean)
      .add("round_ms_p50", round_hist.p50())
      .add("round_ms_p99", round_hist.p99())
      .add("round_ms_p999", round_hist.p999())
      .add("acc_mean_last", acc_mean_last)
      .add("vm_rss_mb", vm_rss_mb)
      .add("vm_hwm_mb", vm_hwm_mb)
      .add("rss_limit_mb", max_rss_mb)
      .add("upload_bytes", fed.comm().total_upload())
      .add("download_bytes", fed.comm().total_download())
      .add("server_link_floats", server_link)
      .add("flat_link_floats", flat_link)
      .add("weights_fp_chain", stats.weights_fp_chain)
      .add("resident_shards", fed.source().resident());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fleet_scale",
                "Fleet scaling: virtualized clients, pooled clones, edge "
                "aggregation (1k -> 1M sweep)");
  cli.add_int("clients", 0, "fleet size; 0 sweeps 1k, 10k, 100k, 1M");
  cli.add_int("rounds", 3, "federated rounds per stage");
  cli.add_double("participation", 0.01, "cohort fraction sampled per round");
  cli.add_int("edges", 8, "edge aggregators in the two-level tree");
  cli.add_int("samples-per-client", 24, "mean samples dealt per client");
  cli.add_int("hidden", 32, "MLP hidden width");
  cli.add_int("eval-clients", 64, "cohort clients evaluated per round");
  cli.add_int("threads", 0, "training threads (0 = hardware)");
  cli.add_double("max-rss-mb", 0.0,
                 "abort if peak RSS exceeds this many MiB (0 = off)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("dataset", "fmnist", "cifar10 | fmnist | svhn");
  cli.add_string("out", "BENCH_fleet.json", "output JSON path");
  cli.parse(argc, argv);

  std::vector<std::size_t> fleets;
  if (cli.get_int("clients") > 0) {
    fleets.push_back(static_cast<std::size_t>(cli.get_int("clients")));
  } else {
    fleets = {1000, 10000, 100000, 1000000};
  }

  TextTable table({"clients", "cohort", "round ms", "p99 ms", "acc",
                   "rss MiB", "hwm MiB", "link floats/rd (tree vs flat)"});
  std::vector<bench::JsonRow> results;
  for (const std::size_t n : fleets) {
    std::printf("fleet %zu clients (%.1f%% participation)\n", n,
                100.0 * cli.get_double("participation"));
    results.push_back(run_stage(
        n, static_cast<std::size_t>(cli.get_int("rounds")),
        cli.get_double("participation"),
        static_cast<std::size_t>(cli.get_int("edges")),
        static_cast<std::size_t>(cli.get_int("samples-per-client")),
        static_cast<std::size_t>(cli.get_int("hidden")),
        static_cast<std::size_t>(cli.get_int("eval-clients")),
        static_cast<std::size_t>(cli.get_int("threads")),
        cli.get_double("max-rss-mb"),
        static_cast<std::uint64_t>(cli.get_int("seed")),
        data::synthetic_kind_from_string(cli.get_string("dataset")), table));
  }
  std::printf("%s", table.to_string().c_str());

  bench::write_json_rows(cli.get_string("out"), results);
  std::printf("wrote %s\n", cli.get_string("out").c_str());
  return 0;
}
