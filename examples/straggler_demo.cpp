// Stragglers and wall-clock time: FedClust vs CFL on a cellular fleet,
// plus round-based vs buffered-async FedClust on the same fleet.
//
// The sync methods run over the simulated network with a 50%-straggler
// cutoff: each training round closes once the fastest half of the
// expected uploads arrive, so slow devices' updates are discarded. The
// point of the demo is the TIME axis the network layer adds: FedClust
// pays one reliable formation round (everyone waits, but the uploads
// are tiny final-layer slices), then trains on the fast cohort, while
// CFL ships full models every round while its clusters form.
//
// The async row replaces the round barrier entirely: every client
// re-dispatches the moment its upload lands, and each cluster's buffer
// flushes as soon as K updates arrive (staleness-weighted). Slow
// devices keep contributing instead of being cut, and fast devices
// never idle at a barrier.
//
// Build & run:   ./build/examples/straggler_demo
#include <cstdio>
#include <memory>

#include "algorithms/cfl.hpp"
#include "core/fedclust.hpp"
#include "data/synthetic.hpp"
#include "fl/async.hpp"
#include "nn/models.hpp"
#include "partition/partition.hpp"

using namespace fedclust;

namespace {

constexpr std::size_t kClients = 8;
constexpr std::size_t kRounds = 10;
constexpr double kTarget = 0.4;

fl::Federation build_federation(std::uint64_t seed) {
  const data::SyntheticGenerator generator(data::SyntheticKind::kFmnist,
                                           seed);
  Rng data_rng = Rng(seed).split(1);
  const data::Dataset pool = generator.generate(400, data_rng);

  // Two crisp label groups so both methods have clusters to find.
  Rng part_rng = Rng(seed).split(2);
  const partition::Partition part = partition::grouped_label_partition(
      pool, kClients, {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, part_rng);

  Rng split_rng = Rng(seed).split(3);
  std::vector<fl::ClientData> clients;
  for (const auto& ds : partition::materialize(pool, part)) {
    auto [train, test] = ds.stratified_split(0.25, split_rng);
    if (test.empty()) test = train;
    clients.push_back({std::move(train), std::move(test)});
  }

  nn::Model model = nn::lenet5(generator.image_spec());
  Rng init_rng = Rng(seed).split(4);
  model.init_params(init_rng);

  fl::FederationConfig config;
  config.local.epochs = 2;
  config.local.batch_size = 32;
  config.local.sgd.lr = 0.02;
  config.local.sgd.momentum = 0.9;
  config.seed = seed;
  config.eval_every = 1;

  // The scenario under study: a mobile fleet where each round waits only
  // for the fastest 50% of uploads.
  config.network.enabled = true;
  config.network.profile = net::Profile::kCellular;
  config.network.straggler_frac = 0.5;
  return fl::Federation(std::move(model), std::move(clients), config);
}

void report(const char* name, const fl::RunResult& result,
            const fl::Federation& fed) {
  std::size_t hit_round = 0;
  std::uint64_t hit_bytes = 0;
  double hit_seconds = 0.0;
  const bool reached_rounds =
      result.rounds_to_accuracy(kTarget, hit_round, hit_bytes);
  const bool reached_time = result.time_to_accuracy(kTarget, hit_seconds);

  char rounds_buf[32] = "-";
  char secs_buf[32] = "-";
  if (reached_rounds) {
    std::snprintf(rounds_buf, sizeof(rounds_buf), "%zu", hit_round + 1);
  }
  if (reached_time) {
    std::snprintf(secs_buf, sizeof(secs_buf), "%.1f", hit_seconds);
  }
  std::printf("%-9s %8s %14s %14.1f %10.2f %12.1f\n", name, rounds_buf,
              secs_buf, fed.sim_time(),
              static_cast<double>(fed.comm().total()) / 1e6,
              100.0 * result.final_accuracy.mean);
}

}  // namespace

int main() {
  std::printf("Straggler demo — cellular fleet, %zu clients, %zu rounds,\n"
              "rounds close after the fastest 50%% of uploads arrive.\n\n",
              kClients, kRounds);
  std::printf("%-9s %8s %14s %14s %10s %12s\n", "method", "rounds",
              "s to target", "sim total (s)", "MB total", "final acc %");
  std::printf("%-9s %8s %14s %14s %10s %12s\n", "", "to 40%", "", "", "", "");

  {
    core::FedClust algo(
        core::FedClustConfig{.warmup_epochs = 2, .rel_factor = 0.6});
    fl::Federation fed = build_federation(/*seed=*/17);
    const fl::RunResult result = algo.run(fed, kRounds);
    report("FedClust", result, fed);
  }
  {
    algorithms::Cfl algo(algorithms::CflConfig{
        .eps1 = 0.8, .eps2 = 1.2, .warmup_rounds = 2, .min_cluster_size = 3});
    fl::Federation fed = build_federation(/*seed=*/17);
    const fl::RunResult result = algo.run(fed, kRounds);
    report("CFL", result, fed);
  }
  {
    // Same federation, no round barrier: clients re-dispatch as soon as
    // their upload lands and each cluster flushes every K=4 updates,
    // downweighted by staleness. Async flushes land ~2x faster than
    // sync rounds close on this fleet, so a 2x flush budget gives it
    // roughly the sync runs' virtual-time horizon.
    fl::AsyncConfig ac;
    ac.buffer_k = 4;
    ac.staleness_fn = fl::StalenessKind::kPolynomial;
    ac.staleness_exponent = 0.5;
    const std::size_t flushes = 2 * kRounds * kClients / ac.buffer_k;
    core::FedClust algo(
        core::FedClustConfig{.warmup_epochs = 2, .rel_factor = 0.6});
    fl::Federation fed = build_federation(/*seed=*/17);
    const fl::RunResult result = fl::run_async(fed, algo, ac, flushes);
    report("async", result, fed);
  }

  std::printf(
      "\nFedClust's formation round is reliable (it waits for every "
      "client),\nbut uploads only final-layer slices; every later round "
      "trains just the\nfast half of the fleet. CFL pays full-model "
      "traffic under the same\ncutoff while its clusters are still "
      "forming. The async row is FedClust\nwithout the barrier: buffered "
      "aggregation keeps every device in the\nfederation, and the "
      "\"rounds\" column counts buffer flushes instead of\nsynchronized "
      "rounds.\n");
  return 0;
}
