#include "partition/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fedclust::partition {
namespace {

std::vector<std::vector<std::size_t>> indices_by_class(
    const data::Dataset& pool) {
  std::vector<std::vector<std::size_t>> by_class(pool.spec().classes);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_class[static_cast<std::size_t>(pool.label(i))].push_back(i);
  }
  return by_class;
}

}  // namespace

void dirichlet_deal_class(
    std::size_t class_size, std::size_t num_clients, double beta, Rng& rng,
    const std::function<void(std::size_t client, std::size_t offset,
                             std::size_t count)>& deal) {
  FEDCLUST_REQUIRE(num_clients > 0, "need at least one client");
  FEDCLUST_REQUIRE(beta > 0.0, "Dirichlet beta must be positive");
  if (class_size == 0) return;
  const std::vector<double> props = rng.dirichlet(beta, num_clients);
  // Deal the class's samples proportionally; cumulative rounding keeps
  // the total exact.
  double carry = 0.0;
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < num_clients; ++k) {
    const double want = props[k] * static_cast<double>(class_size) + carry;
    std::size_t take = static_cast<std::size_t>(want);
    carry = want - static_cast<double>(take);
    take = std::min(take, class_size - cursor);
    if (take > 0) deal(k, cursor, take);
    cursor += take;
  }
  // Any residue from rounding goes to the last clients.
  for (std::size_t k = num_clients; cursor < class_size; ++k) {
    deal(k % num_clients, cursor, 1);
    ++cursor;
  }
}

Partition dirichlet_partition(const data::Dataset& pool,
                              std::size_t num_clients, double beta, Rng& rng,
                              std::size_t min_samples) {
  FEDCLUST_REQUIRE(num_clients > 0, "need at least one client");
  FEDCLUST_REQUIRE(beta > 0.0, "Dirichlet beta must be positive");
  FEDCLUST_REQUIRE(pool.size() >= num_clients * min_samples,
                   "pool too small: " << pool.size() << " samples for "
                                      << num_clients << " clients");
  const auto by_class = indices_by_class(pool);

  // Re-draw until every client has at least min_samples (the standard
  // trick in the ICDE'22 reference code; tiny beta occasionally starves
  // a client).
  for (int attempt = 0;; ++attempt) {
    FEDCLUST_CHECK(attempt < 100,
                   "dirichlet_partition failed to satisfy min_samples="
                       << min_samples << " after 100 attempts");
    Partition part;
    part.client_indices.assign(num_clients, {});
    for (const auto& cls : by_class) {
      if (cls.empty()) continue;
      std::vector<std::size_t> shuffled = cls;
      rng.shuffle(shuffled);
      dirichlet_deal_class(
          shuffled.size(), num_clients, beta, rng,
          [&](std::size_t k, std::size_t offset, std::size_t count) {
            for (std::size_t t = 0; t < count; ++t) {
              part.client_indices[k].push_back(shuffled[offset + t]);
            }
          });
    }
    const bool ok =
        std::all_of(part.client_indices.begin(), part.client_indices.end(),
                    [&](const auto& v) { return v.size() >= min_samples; });
    if (ok) {
      for (auto& v : part.client_indices) std::sort(v.begin(), v.end());
      return part;
    }
  }
}

Partition shard_partition(const data::Dataset& pool, std::size_t num_clients,
                          std::size_t shards_per_client, Rng& rng) {
  FEDCLUST_REQUIRE(num_clients > 0 && shards_per_client > 0,
                   "bad shard_partition arguments");
  // Sort indices by label, then split into equal contiguous shards.
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pool.label(a) < pool.label(b);
  });
  const std::size_t num_shards = num_clients * shards_per_client;
  FEDCLUST_REQUIRE(pool.size() >= num_shards,
                   "pool smaller than the number of shards");
  std::vector<std::size_t> shard_order(num_shards);
  std::iota(shard_order.begin(), shard_order.end(), 0);
  rng.shuffle(shard_order);

  Partition part;
  part.client_indices.assign(num_clients, {});
  const std::size_t shard_size = pool.size() / num_shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t client = s / shards_per_client;
    const std::size_t shard = shard_order[s];
    const std::size_t lo = shard * shard_size;
    // Last shard absorbs the remainder.
    const std::size_t hi =
        shard + 1 == num_shards ? pool.size() : lo + shard_size;
    for (std::size_t i = lo; i < hi; ++i) {
      part.client_indices[client].push_back(order[i]);
    }
  }
  for (auto& v : part.client_indices) std::sort(v.begin(), v.end());
  return part;
}

Partition iid_partition(const data::Dataset& pool, std::size_t num_clients,
                        Rng& rng) {
  FEDCLUST_REQUIRE(num_clients > 0, "need at least one client");
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  Partition part;
  part.client_indices.assign(num_clients, {});
  for (std::size_t i = 0; i < order.size(); ++i) {
    part.client_indices[i % num_clients].push_back(order[i]);
  }
  for (auto& v : part.client_indices) std::sort(v.begin(), v.end());
  return part;
}

Partition quantity_skew_partition(const data::Dataset& pool,
                                  std::size_t num_clients, double beta,
                                  Rng& rng, std::size_t min_samples) {
  FEDCLUST_REQUIRE(num_clients > 0, "need at least one client");
  FEDCLUST_REQUIRE(beta > 0.0, "Dirichlet beta must be positive");
  FEDCLUST_REQUIRE(pool.size() >= num_clients * min_samples,
                   "pool too small for the requested minimum");

  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Guaranteed floor first, then Dirichlet shares over the remainder.
  const std::size_t floor_total = num_clients * min_samples;
  const std::size_t spare = pool.size() - floor_total;
  const std::vector<double> shares = rng.dirichlet(beta, num_clients);

  std::vector<std::size_t> counts(num_clients, min_samples);
  double carry = 0.0;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < num_clients; ++k) {
    const double want = shares[k] * static_cast<double>(spare) + carry;
    std::size_t take = static_cast<std::size_t>(want);
    carry = want - static_cast<double>(take);
    take = std::min(take, spare - assigned);
    counts[k] += take;
    assigned += take;
  }
  // Rounding residue to the last clients.
  for (std::size_t k = 0; assigned < spare; ++k) {
    ++counts[k % num_clients];
    ++assigned;
  }

  Partition part;
  part.client_indices.assign(num_clients, {});
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < num_clients; ++k) {
    for (std::size_t i = 0; i < counts[k]; ++i) {
      part.client_indices[k].push_back(order[cursor++]);
    }
    std::sort(part.client_indices[k].begin(), part.client_indices[k].end());
  }
  return part;
}

Partition grouped_label_partition(
    const data::Dataset& pool, std::size_t num_clients,
    const std::vector<std::vector<std::int32_t>>& group_labels, Rng& rng,
    double within_group_beta) {
  FEDCLUST_REQUIRE(!group_labels.empty(), "need at least one group");
  FEDCLUST_REQUIRE(num_clients >= group_labels.size(),
                   "fewer clients than groups");
  const std::size_t num_groups = group_labels.size();

  // Round-robin client -> group assignment: clients {0, G, 2G, ...} in
  // group 0, etc. Keeps groups balanced for any client count.
  Partition part;
  part.client_indices.assign(num_clients, {});
  part.true_groups.resize(num_clients);
  std::vector<std::vector<std::size_t>> group_members(num_groups);
  for (std::size_t c = 0; c < num_clients; ++c) {
    const std::size_t g = c % num_groups;
    part.true_groups[c] = g;
    group_members[g].push_back(c);
  }

  const auto by_class = indices_by_class(pool);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto& members = group_members[g];
    for (std::int32_t label : group_labels[g]) {
      FEDCLUST_REQUIRE(
          label >= 0 && static_cast<std::size_t>(label) < by_class.size(),
          "group label " << label << " out of range");
      std::vector<std::size_t> cls =
          by_class[static_cast<std::size_t>(label)];
      rng.shuffle(cls);
      if (within_group_beta > 0.0) {
        const std::vector<double> props =
            rng.dirichlet(within_group_beta, members.size());
        double carry = 0.0;
        std::size_t cursor = 0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          const double want =
              props[k] * static_cast<double>(cls.size()) + carry;
          std::size_t take = static_cast<std::size_t>(want);
          carry = want - static_cast<double>(take);
          take = std::min(take, cls.size() - cursor);
          for (std::size_t t = 0; t < take; ++t) {
            part.client_indices[members[k]].push_back(cls[cursor++]);
          }
        }
        for (std::size_t k = 0; cursor < cls.size(); ++k) {
          part.client_indices[members[k % members.size()]].push_back(
              cls[cursor++]);
        }
      } else {
        for (std::size_t i = 0; i < cls.size(); ++i) {
          part.client_indices[members[i % members.size()]].push_back(cls[i]);
        }
      }
    }
  }
  for (auto& v : part.client_indices) std::sort(v.begin(), v.end());
  return part;
}

std::vector<data::Dataset> feature_skew_split(const data::Dataset& pool,
                                              std::size_t num_clients,
                                              double sigma, Rng& rng) {
  FEDCLUST_REQUIRE(num_clients > 0, "need at least one client");
  FEDCLUST_REQUIRE(sigma >= 0.0, "noise level must be non-negative");
  const Partition base = iid_partition(pool, num_clients, rng);

  std::vector<data::Dataset> out;
  out.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    const double level =
        num_clients > 1
            ? sigma * static_cast<double>(c) /
                  static_cast<double>(num_clients - 1)
            : 0.0;
    data::Dataset ds(pool.spec());
    for (const std::size_t i : base.client_indices[c]) {
      Tensor img = pool.image(i);
      if (level > 0.0) {
        for (auto& v : img.flat()) {
          v += static_cast<float>(rng.normal(0.0, level));
        }
      }
      ds.add(img, pool.label(i));
    }
    out.push_back(std::move(ds));
  }
  return out;
}

std::vector<data::Dataset> materialize(const data::Dataset& pool,
                                       const Partition& partition) {
  std::vector<data::Dataset> out;
  out.reserve(partition.num_clients());
  for (const auto& idx : partition.client_indices) {
    out.push_back(pool.subset(idx));
  }
  return out;
}

std::vector<std::vector<std::size_t>> label_histograms(
    const data::Dataset& pool, const Partition& partition) {
  std::vector<std::vector<std::size_t>> out(
      partition.num_clients(),
      std::vector<std::size_t>(pool.spec().classes, 0));
  for (std::size_t c = 0; c < partition.num_clients(); ++c) {
    for (std::size_t i : partition.client_indices[c]) {
      ++out[c][static_cast<std::size_t>(pool.label(i))];
    }
  }
  return out;
}

double heterogeneity_index(const data::Dataset& pool,
                           const Partition& partition) {
  const auto hists = label_histograms(pool, partition);
  const std::size_t n = hists.size();
  if (n < 2) return 0.0;

  // Normalize to distributions.
  std::vector<std::vector<double>> dists(n);
  for (std::size_t c = 0; c < n; ++c) {
    const double total = static_cast<double>(std::accumulate(
        hists[c].begin(), hists[c].end(), std::size_t{0}));
    dists[c].resize(hists[c].size());
    for (std::size_t k = 0; k < hists[c].size(); ++k) {
      dists[c][k] = total > 0.0 ? static_cast<double>(hists[c][k]) / total : 0.0;
    }
  }

  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double tv = 0.0;
      for (std::size_t k = 0; k < dists[i].size(); ++k) {
        tv += std::abs(dists[i][k] - dists[j][k]);
      }
      sum += 0.5 * tv;
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

}  // namespace fedclust::partition
