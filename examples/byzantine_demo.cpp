// Byzantine sign-flip attack vs robust aggregation.
//
// A fixed 20% of the fleet (2 of 10 clients, one inside each data
// group) uploads amplified sign-flipped weights every training round:
// each attacker reflects its update about the round's start weights and
// scales it, w' = start - 8*(w - start), dragging the plain weighted
// average far past cancelling the honest progress. The formation round
// is spared
// (start_round = 1) so FedClust's clustering forms from honest uploads
// — the attack targets training, not formation.
//
// Six runs: {FedAvg, FedClust} x {clean, attacked + weighted mean,
// attacked + coordinate-wise trimmed mean}. The trimmed mean drops the
// largest and smallest value of every coordinate (trim_frac 0.25 — one
// value per side even in a 4-member cluster), so the attacked run
// retains nearly all of its fault-free accuracy while the weighted mean
// degrades. Results also land in BENCH_robustness.json.
//
// Build & run:   ./build/examples/byzantine_demo
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/fedavg.hpp"
#include "bench_common.hpp"
#include "core/fedclust.hpp"
#include "robust/aggregate.hpp"

using namespace fedclust;

namespace {

constexpr std::size_t kClients = 10;
constexpr std::size_t kRounds = 8;
constexpr std::uint64_t kSeed = 23;

enum class Attack { kNone, kWeightedMean, kTrimmedMean };

fl::Federation build_federation(Attack attack) {
  bench::Scenario s;
  s.num_clients = kClients;
  s.dirichlet_beta = -1.0;  // two crisp label groups
  s.within_group_beta = 0.0;
  s.pool_samples = 2000;
  s.seed = kSeed;
  s.engine.local.epochs = 2;
  s.engine.local.batch_size = 32;
  s.engine.local.sgd.lr = 0.02;
  s.engine.local.sgd.momentum = 0.9;
  s.engine.threads = 2;

  if (attack != Attack::kNone) {
    // One attacker inside each data group: client 4 (group 0, the even
    // clients) and client 7 (group 1, the odd clients).
    s.engine.faults.enabled = true;
    s.engine.faults.byzantine_clients = {4, 7};
    s.engine.faults.start_round = 1;  // spare the formation round
    // Amplified sign flip (Fang-style): the pure reflection's delta has
    // honest magnitude and hides inside SGD noise; at 8x a 20% cohort
    // drags the average far past cancelling the honest progress, while
    // the trimmed mean stays bounded by the honest spread (a non-extreme
    // attacker coordinate lies inside the honest range by definition).
    s.engine.faults.sign_flip_scale = 8.0;
  }
  if (attack == Attack::kTrimmedMean) {
    s.engine.robust.rule = robust::AggregationRule::kTrimmedMean;
    s.engine.robust.trim_frac = 0.25;
  }
  return bench::make_federation(s);
}

fl::RunResult run_one(const std::string& algorithm, Attack attack) {
  fl::Federation fed = build_federation(attack);
  if (algorithm == "FedAvg") {
    algorithms::FedAvg algo;
    return algo.run(fed, kRounds);
  }
  // Longer warmup + looser cut so formation recovers the two true data
  // groups (k = 2); over-fragmented singleton clusters would make any
  // per-cluster robust aggregation a no-op.
  core::FedClust algo(
      core::FedClustConfig{.warmup_epochs = 3, .rel_factor = 1.0});
  return algo.run(fed, kRounds);
}

}  // namespace

int main() {
  std::printf(
      "Byzantine demo — %zu clients, 20%% sign-flip attackers "
      "(clients 4 and 7),\n%zu rounds, attack active from round 1.\n\n",
      kClients, kRounds);
  std::printf("%-9s %-9s %-13s %12s %10s\n", "method", "scenario", "rule",
              "final acc %", "retention");

  std::vector<bench::JsonRow> results;
  bool attacked_mean_degrades = true;
  bool trimmed_retains = true;
  for (const std::string algorithm : {"FedAvg", "FedClust"}) {
    double clean_acc = 0.0;
    for (const Attack attack :
         {Attack::kNone, Attack::kWeightedMean, Attack::kTrimmedMean}) {
      const fl::RunResult r = run_one(algorithm, attack);
      const std::string scenario =
          attack == Attack::kNone ? "clean" : "attacked";
      const std::string rule =
          robust::to_string(attack == Attack::kTrimmedMean
                                ? robust::AggregationRule::kTrimmedMean
                                : robust::AggregationRule::kWeightedMean);
      const double acc = r.final_accuracy.mean;
      // Final accuracy as a fraction of the same algorithm's fault-free
      // accuracy (1.0 for the clean runs themselves).
      double retention = 1.0;
      if (attack == Attack::kNone) {
        clean_acc = acc;
      } else if (clean_acc > 0.0) {
        retention = acc / clean_acc;
      }
      if (attack == Attack::kWeightedMean) {
        attacked_mean_degrades = attacked_mean_degrades && retention < 0.9;
      }
      if (attack == Attack::kTrimmedMean) {
        trimmed_retains = trimmed_retains && retention >= 0.9;
      }
      std::printf("%-9s %-9s %-13s %12.1f %9.0f%%\n", algorithm.c_str(),
                  scenario.c_str(), rule.c_str(), 100.0 * acc,
                  100.0 * retention);
      results.push_back(bench::JsonRow()
                            .add("algorithm", algorithm)
                            .add("scenario", scenario)
                            .add("rule", rule)
                            .add("acc_mean", acc)
                            .add("acc_std", r.final_accuracy.std)
                            .add("clean_retention", retention));
    }
  }

  bench::write_json_rows("BENCH_robustness.json", results);
  std::printf(
      "\nPlain weighted averaging lets 20%% sign-flippers cancel honest "
      "progress;\nthe coordinate-wise trimmed mean (trim 0.25) drops the "
      "extreme value on\neach side per coordinate, so the attacked run "
      "tracks the fault-free one.\nResults written to "
      "BENCH_robustness.json.\n");
  if (!attacked_mean_degrades) {
    std::printf("note: weighted-mean attack degradation below threshold "
                "in this configuration\n");
  }
  if (!trimmed_retains) {
    std::fprintf(stderr,
                 "FAIL: trimmed mean retained < 90%% of fault-free "
                 "accuracy\n");
    return 1;
  }
  return 0;
}
