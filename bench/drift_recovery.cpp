// Drift recovery: static vs dynamic FedClust under sudden concept drift.
//
// A two-group fleet trains past convergence, then half of group 0
// rotates its label space (classes 0-4 -> 5-9) at a scheduled round:
// those clients become distributionally identical to group 1, so the
// static partition is permanently wrong — its cluster-0 model averages
// two conflicting input→label mappings forever. The dynamic arm runs
// the same schedule with drift detection on: the windowed mean-shift
// test alarms within a few evals and the Gaussian soft-membership /
// dendrogram-split recovery repairs the partition online.
//
// Emits BENCH_drift.json (quoted in EXPERIMENTS.md E10). The headline
// gate: the dynamic arm returns to within 2 accuracy points of its
// pre-drift mean while the static arm never does. A determinism
// self-check re-runs the dynamic arm under a different kernel-thread
// count and requires a bit-identical weights-fingerprint chain.
//
//   ./build/bench/drift_recovery [--quick] [--faults] [--out FILE]
//
// --quick is the CI smoke mode (shorter run, same gates); --faults
// additionally enables random crash/staleness fault injection on top of
// the drift schedule — the sanitizer jobs run drift + churn + faults
// together as a chaos smoke.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fedclust.hpp"
#include "nn/models.hpp"
#include "robust/drift.hpp"

using namespace fedclust;

namespace {

struct Options {
  bool quick = false;
  bool faults = false;
  std::string out = "BENCH_drift.json";
};

constexpr std::size_t kClients = 12;
constexpr double kRecoverMargin = 0.02;  // the 2-point acceptance band

/// One arm (static or dynamic FedClust); kept as a struct because the
/// gates and the determinism replay compare arms.
struct ArmResult {
  std::string mode;  ///< "static" | "dynamic"
  std::size_t rounds = 0;
  double pre_drift_acc = 0.0;    ///< mean accuracy just before the drift
  double trough_acc = 0.0;       ///< worst mean accuracy at/after the drift
  double final_acc = 0.0;
  std::size_t detect_round = 0;  ///< first round with a drift alarm (0 = never)
  std::size_t recover_round = 0; ///< first post-drift round back within
                                 ///< kRecoverMargin of pre-drift (0 = never)
  std::size_t reclusters = 0;    ///< split/merge recoveries applied
  std::size_t final_clusters = 0;
  /// FNV-1a chain over the per-round weights fingerprints — equal chains
  /// mean bit-identical trajectories.
  std::uint64_t weights_fp_chain = 0;
  /// Per-round mean accuracy series (the recovery curve).
  std::vector<double> acc_series;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      opt.faults = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: drift_recovery [--quick] [--faults] [--out FILE]\n");
      std::exit(2);
    }
  }
  return opt;
}

/// The drifted cohort: the first half of group 0's slots.
std::vector<std::size_t> drifted_slots(
    const std::vector<std::size_t>& true_groups) {
  std::vector<std::size_t> group0;
  for (std::size_t i = 0; i < true_groups.size(); ++i) {
    if (true_groups[i] == 0) group0.push_back(i);
  }
  group0.resize(group0.size() / 2);
  return group0;
}

fl::Federation build_federation(const Options& opt, std::size_t drift_round,
                                std::size_t kernel_threads,
                                std::vector<std::size_t>* groups_out) {
  bench::Scenario s;
  s.dataset = data::SyntheticKind::kFmnist;
  s.num_clients = kClients;
  s.dirichlet_beta = 0.0;  // crisp two-group partition
  s.within_group_beta = 0.0;
  s.pool_samples = opt.quick ? 720 : 1200;
  s.seed = 29;
  s.model = "mlp";
  s.engine.local.epochs = 2;
  s.engine.local.sgd.lr = 0.05;
  s.engine.local.sgd.momentum = 0.9;
  s.engine.eval_every = 1;
  s.engine.kernel_threads = kernel_threads;

  // Resolve the drifted cohort from the ground-truth groups, then
  // rebuild with the drift schedule attached (the partition is a pure
  // function of the scenario, so both constructions agree).
  std::vector<std::size_t> groups;
  { bench::make_federation(s, &groups); }
  robust::DriftEvent rotate;
  rotate.round = drift_round;
  rotate.kind = robust::DriftKind::kLabelRotation;
  rotate.slots = drifted_slots(groups);
  rotate.rotate_by = 5;  // classes 0-4 -> 5-9: group 0 mimics group 1
  s.engine.drift.enabled = true;
  s.engine.drift.events.push_back(rotate);
  if (opt.faults) {
    // Chaos smoke: random crashes and stale replays on top of the drift
    // schedule (the sanitizer CI leg runs this combination).
    s.engine.faults.enabled = true;
    s.engine.faults.crash_prob = 0.05;
    s.engine.faults.stale_prob = 0.05;
    s.engine.faults.start_round = 1;
  }
  if (groups_out != nullptr) *groups_out = groups;
  return bench::make_federation(s);
}

core::FedClustConfig algo_config(bool dynamic) {
  core::FedClustConfig cfg;
  cfg.warmup_epochs = 1;
  if (dynamic) {
    cfg.dynamic.enabled = true;
    cfg.dynamic.detector.window = 4;
    cfg.dynamic.detector.drop_threshold = 0.05;
    cfg.dynamic.detector.hysteresis = 2;
    cfg.dynamic.detector.cooldown = 2;
    cfg.dynamic.max_recoveries = 3;
  }
  return cfg;
}

ArmResult summarize(const std::string& mode, std::size_t drift_round,
                    const fl::RunResult& result) {
  ArmResult r;
  r.mode = mode;
  r.rounds = result.rounds.empty() ? 0 : result.rounds.back().round + 1;
  r.final_acc = result.final_accuracy.mean;
  r.final_clusters =
      result.rounds.empty() ? 0 : result.rounds.back().num_clusters;
  r.trough_acc = 1.0;
  std::uint64_t chain = 1469598103934665603ull;
  for (const fl::RoundMetrics& m : result.rounds) {
    chain = (chain ^ m.weights_fp) * 1099511628211ull;
    r.acc_series.push_back(m.acc_mean);
    r.reclusters += m.reclusters;
    if (m.round < drift_round) {
      r.pre_drift_acc = std::max(r.pre_drift_acc, m.acc_mean);
    } else {
      r.trough_acc = std::min(r.trough_acc, m.acc_mean);
      if (r.detect_round == 0 && m.drift_alarms > 0) {
        r.detect_round = m.round;
      }
      if (r.recover_round == 0 &&
          m.acc_mean >= r.pre_drift_acc - kRecoverMargin) {
        r.recover_round = m.round;
      }
    }
  }
  r.weights_fp_chain = chain;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::size_t drift_round = opt.quick ? 5 : 8;
  const std::size_t rounds = opt.quick ? 22 : 28;

  std::printf("drift_recovery: %zu clients, label rotation at round %zu, "
              "%zu rounds%s\n\n",
              kClients, drift_round, rounds,
              opt.faults ? " (+fault chaos)" : "");

  std::vector<ArmResult> results;
  for (const bool dynamic : {false, true}) {
    fl::Federation fed = build_federation(opt, drift_round,
                                          /*kernel_threads=*/0, nullptr);
    core::FedClust algo(algo_config(dynamic));
    const fl::RunResult res = algo.run(fed, rounds);
    results.push_back(
        summarize(dynamic ? "dynamic" : "static", drift_round, res));
  }
  const ArmResult& statik = results[0];
  const ArmResult& dynamic = results[1];

  std::printf("%-8s %9s %8s %7s %7s %7s %7s %5s\n", "mode", "pre-drift",
              "trough", "final", "detect", "recov", "reclus", "k");
  for (const ArmResult& r : results) {
    char detect[24] = "-", recover[24] = "-";
    if (r.detect_round) {
      std::snprintf(detect, sizeof(detect), "r%zu", r.detect_round);
    }
    if (r.recover_round) {
      std::snprintf(recover, sizeof(recover), "r%zu", r.recover_round);
    }
    std::printf("%-8s %8.1f%% %7.1f%% %6.1f%% %7s %7s %7zu %5zu\n",
                r.mode.c_str(), 100.0 * r.pre_drift_acc, 100.0 * r.trough_acc,
                100.0 * r.final_acc, detect, recover, r.reclusters,
                r.final_clusters);
  }

  // Determinism self-check: the dynamic trajectory (including detection
  // rounds and recovery operations) is bit-identical across kernel
  // threads.
  {
    fl::Federation fed = build_federation(opt, drift_round,
                                          /*kernel_threads=*/2, nullptr);
    core::FedClust algo(algo_config(true));
    const fl::RunResult res = algo.run(fed, rounds);
    const ArmResult replay = summarize("dynamic", drift_round, res);
    if (replay.weights_fp_chain != dynamic.weights_fp_chain) {
      std::printf("FAIL: dynamic arm diverges across kernel-thread counts "
                  "(%016llx vs %016llx)\n",
                  static_cast<unsigned long long>(dynamic.weights_fp_chain),
                  static_cast<unsigned long long>(replay.weights_fp_chain));
      return 1;
    }
    std::printf("\ndeterminism: dynamic weights_fp chain %016llx identical "
                "across kernel threads\n",
                static_cast<unsigned long long>(dynamic.weights_fp_chain));
  }

  std::vector<bench::JsonRow> rows;
  for (const ArmResult& r : results) {
    rows.push_back(bench::JsonRow()
                       .add("mode", r.mode)
                       .add("rounds", r.rounds)
                       .add("drift_round", drift_round)
                       .add("pre_drift_acc", r.pre_drift_acc)
                       .add("trough_acc", r.trough_acc)
                       .add("final_acc", r.final_acc)
                       .add("detect_round", r.detect_round)
                       .add("recover_round", r.recover_round)
                       .add("recover_margin", kRecoverMargin)
                       .add("reclusters", r.reclusters)
                       .add("final_clusters", r.final_clusters)
                       .add("weights_fp_chain", r.weights_fp_chain)
                       .add("acc_series", r.acc_series));
  }
  bench::write_json_rows(opt.out, rows);
  std::printf("wrote %s\n", opt.out.c_str());

  // Gates. Detection must fire in every mode; under fault chaos the
  // accuracy comparisons stay informational (crashes perturb both arms).
  if (dynamic.detect_round == 0 || dynamic.reclusters == 0) {
    std::printf("FAIL: dynamic arm never detected/recovered the drift\n");
    return 1;
  }
  if (statik.detect_round != 0 || statik.reclusters != 0) {
    std::printf("FAIL: static arm reported drift machinery activity\n");
    return 1;
  }
  if (!opt.faults) {
    if (dynamic.final_acc <= statik.final_acc + kRecoverMargin) {
      std::printf("FAIL: dynamic %.3f did not beat static %.3f by %.0f pts\n",
                  dynamic.final_acc, statik.final_acc, 100 * kRecoverMargin);
      return 1;
    }
    // The 2-point recovery band is the full-run acceptance; the quick
    // smoke keeps detection + separation gates only (fewer post-drift
    // rounds to converge in).
    if (!opt.quick) {
      if (dynamic.recover_round == 0) {
        std::printf("FAIL: dynamic arm never returned within %.0f pts of "
                    "its pre-drift accuracy\n",
                    100 * kRecoverMargin);
        return 1;
      }
      if (statik.recover_round != 0) {
        std::printf("FAIL: static arm recovered on its own (r%zu) — the "
                    "drift is not a permanent-degradation scenario\n",
                    statik.recover_round);
        return 1;
      }
      std::printf("headline: dynamic recovered to within %.0f pts of "
                  "pre-drift by round %zu (detected r%zu); static stuck at "
                  "%.1f%% vs %.1f%% pre-drift\n",
                  100 * kRecoverMargin, dynamic.recover_round,
                  dynamic.detect_round, 100 * statik.final_acc,
                  100 * statik.pre_drift_acc);
    }
  }
  return 0;
}
