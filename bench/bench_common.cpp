#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "nn/models.hpp"

namespace fedclust::bench {

fl::Federation make_federation(const Scenario& s,
                               std::vector<std::size_t>* true_groups_out) {
  const data::SyntheticGenerator gen(s.dataset, s.seed);
  Rng data_rng = Rng(s.seed).split(101);
  const data::Dataset pool = gen.generate(s.pool_samples, data_rng);

  Rng part_rng = Rng(s.seed).split(102);
  partition::Partition part;
  if (s.dirichlet_beta > 0.0) {
    part = partition::dirichlet_partition(pool, s.num_clients,
                                          s.dirichlet_beta, part_rng,
                                          /*min_samples=*/12);
  } else {
    // Two groups over disjoint label halves — the §II motivation setup.
    part = partition::grouped_label_partition(
        pool, s.num_clients, {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, part_rng,
        s.within_group_beta);
  }
  if (true_groups_out != nullptr) *true_groups_out = part.true_groups;

  Rng split_rng = Rng(s.seed).split(103);
  std::vector<fl::ClientData> clients;
  for (const auto& ds : partition::materialize(pool, part)) {
    auto [train, test] = ds.stratified_split(s.test_fraction, split_rng);
    if (test.empty()) test = train;
    clients.push_back({std::move(train), std::move(test)});
  }

  nn::Model model = s.model == "lenet5"     ? nn::lenet5(gen.image_spec())
                    : s.model == "vgg_mini" ? nn::vgg_mini(gen.image_spec())
                    : s.model == "mlp"      ? nn::mlp(gen.image_spec())
                                            : nn::Model{};
  FEDCLUST_REQUIRE(model.num_layers() > 0,
                   "unknown scenario model '" << s.model
                                              << "' (want lenet5|vgg_mini|mlp)");
  Rng init_rng = Rng(s.seed).split(104);
  model.init_params(init_rng);

  fl::FederationConfig cfg = s.engine;
  cfg.seed = s.seed;
  return fl::Federation(std::move(model), std::move(clients), cfg);
}

std::vector<std::unique_ptr<fl::Algorithm>> make_algorithms(
    std::size_t expected_clusters) {
  std::vector<std::unique_ptr<fl::Algorithm>> algos;
  algos.push_back(std::make_unique<algorithms::FedAvg>());
  algos.push_back(std::make_unique<algorithms::FedProx>(0.05));
  algos.push_back(std::make_unique<algorithms::Cfl>(algorithms::CflConfig{
      .eps1 = 0.8, .eps2 = 1.2, .warmup_rounds = 3, .min_cluster_size = 3}));
  algos.push_back(std::make_unique<algorithms::Ifca>(algorithms::IfcaConfig{
      .num_clusters = expected_clusters, .init_perturbation = 0.1}));
  algos.push_back(std::make_unique<algorithms::Pacfl>(algorithms::PacflConfig{
      .subspace_rank = 3, .samples_per_class_cap = 24}));
  algos.push_back(std::make_unique<core::FedClust>(core::FedClustConfig{
      .warmup_epochs = 2, .rel_factor = 0.6}));
  return algos;
}

namespace {

/// Reads one "<key>:   <kB> kB" line from /proc/self/status; 0 when the
/// file or key is missing (non-Linux hosts).
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status.good()) return 0.0;
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const double kb = std::strtod(line.c_str() + prefix.size(), nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string fixed4(double value) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(4) << value;
  return oss.str();
}

}  // namespace

double current_rss_mb() { return proc_status_mb("VmRSS"); }

double peak_rss_mb() { return proc_status_mb("VmHWM"); }

void require_max_rss(double limit_mb) {
  if (limit_mb <= 0.0) return;
  const double peak = peak_rss_mb();
  if (peak <= 0.0) return;  // no /proc on this host — check unavailable
  FEDCLUST_REQUIRE(peak <= limit_mb, "peak RSS " << peak << " MiB exceeds --max-rss-mb "
                                                << limit_mb << " MiB");
}

JsonRow& JsonRow::add_raw(const std::string& key, const std::string& value) {
  if (!fields_.empty()) fields_ += ", ";
  fields_ += "\"" + key + "\": " + value;
  return *this;
}

JsonRow& JsonRow::add(const std::string& key, const std::string& value) {
  return add_raw(key, "\"" + value + "\"");
}

JsonRow& JsonRow::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

JsonRow& JsonRow::add(const std::string& key, std::uint64_t value) {
  return add_raw(key, std::to_string(value));
}

JsonRow& JsonRow::add(const std::string& key, double value) {
  return add_raw(key, fixed4(value));
}

JsonRow& JsonRow::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}

JsonRow& JsonRow::add(const std::string& key,
                      const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    list += (i ? ", " : "") + fixed4(values[i]);
  }
  return add_raw(key, list + "]");
}

void write_json_rows(const std::string& path,
                     const std::vector<JsonRow>& rows) {
  std::ofstream out(path);
  FEDCLUST_REQUIRE(out.good(), "cannot open " << path << " for writing");
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "  " << rows[i].to_string() << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

MeanStd mean_std(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  for (double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - out.mean) * (v - out.mean);
  out.std = std::sqrt(var / static_cast<double>(values.size()));
  return out;
}

}  // namespace fedclust::bench
