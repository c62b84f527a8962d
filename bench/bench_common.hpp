// Shared setup for the paper-reproduction bench harnesses: builds the
// synthetic dataset pools, partitions them across clients per the
// paper's Non-IID Dir(0.1) protocol, and constructs the algorithm zoo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/pacfl.hpp"
#include "core/fedclust.hpp"
#include "data/synthetic.hpp"
#include "partition/partition.hpp"
#include "utils/logging.hpp"

namespace fedclust::bench {

/// One experimental setting (dataset × partition × engine knobs).
struct Scenario {
  data::SyntheticKind dataset = data::SyntheticKind::kFmnist;
  std::size_t num_clients = 20;
  /// Dirichlet concentration; <= 0 selects the explicit two-group
  /// partition used by the Fig. 1 / newcomer experiments.
  double dirichlet_beta = 0.1;
  /// Grouped scenarios only (dirichlet_beta <= 0): Dirichlet skew WITHIN
  /// each group; 0 = deal the group's labels evenly (crisp groups).
  double within_group_beta = 0.5;
  std::size_t pool_samples = 1200;
  double test_fraction = 0.25;
  std::uint64_t seed = 1;
  /// Client model architecture: "lenet5" (default), "vgg_mini" or "mlp".
  std::string model = "lenet5";

  fl::FederationConfig engine;
};

/// Builds the federation for a scenario: LeNet-5 on the emulated dataset,
/// Dirichlet (or grouped) partition, per-client stratified test splits.
/// When `true_groups_out` is non-null it receives the ground-truth groups
/// (empty for Dirichlet partitions).
fl::Federation make_federation(const Scenario& s,
                               std::vector<std::size_t>* true_groups_out =
                                   nullptr);

/// The Table-I algorithm zoo with the default hyperparameters used across
/// the benches. `expected_clusters` parameterizes IFCA's k (it must be
/// chosen a priori — the limitation the paper calls out).
std::vector<std::unique_ptr<fl::Algorithm>> make_algorithms(
    std::size_t expected_clusters);

/// Mean and (population) std of a sample.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd mean_std(const std::vector<double>& values);

// -- resident-set helpers -----------------------------------------------------

/// Current resident set size in MiB (Linux /proc/self/status VmRSS);
/// 0 when the file is unavailable.
double current_rss_mb();
/// Peak resident set size in MiB since process start (VmHWM); 0 when
/// unavailable. Process-wide high-water mark — it never decreases.
double peak_rss_mb();
/// Self-check: throws fedclust::Error when the peak RSS exceeds
/// `limit_mb`. A limit of 0 (or a host without /proc) disables the check.
void require_max_rss(double limit_mb);

// -- JSON reporting -----------------------------------------------------------

/// One JSON object of a BENCH_*.json file, modelled on
/// TextTable::new_row().add(...): each add() appends one field, and fields
/// keep their insertion order. Strings are quoted verbatim (callers pass
/// JSON-safe text); doubles print std::fixed with 4 decimals.
class JsonRow {
 public:
  JsonRow& add(const std::string& key, const std::string& value);
  /// Keeps a string literal from converting to the bool overload.
  JsonRow& add(const std::string& key, const char* value);
  JsonRow& add(const std::string& key, std::uint64_t value);
  JsonRow& add(const std::string& key, double value);
  JsonRow& add(const std::string& key, bool value);
  JsonRow& add(const std::string& key, const std::vector<double>& values);

  /// The fields as `{"k": v, ...}`.
  std::string to_string() const { return "{" + fields_ + "}"; }

 private:
  JsonRow& add_raw(const std::string& key, const std::string& value);

  std::string fields_;
};

/// Writes `rows` as a JSON array, one object per line; throws
/// fedclust::Error when `path` cannot be opened.
void write_json_rows(const std::string& path, const std::vector<JsonRow>& rows);

}  // namespace fedclust::bench
