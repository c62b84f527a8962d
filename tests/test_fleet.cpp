// Fleet-virtualization equivalence suite: the lazy VirtualFleet must be
// bit-identical to the eager path, the edge-aggregation fold must be
// bit-identical to flat FedAvg for any edge count and to the sync round
// under every rule and codec, and the supporting pieces (model pool,
// cohort comm metering, streaming moments, the streaming Dirichlet deal)
// must reproduce their dense counterparts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/pacfl.hpp"
#include "check/audit.hpp"
#include "core/fedclust.hpp"
#include "fl/federation.hpp"
#include "fl/model_pool.hpp"
#include "fl/streaming.hpp"
#include "fl/virtual_fleet.hpp"
#include "net/topology.hpp"
#include "partition/partition.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"

namespace fedclust {
namespace {

fl::VirtualFleetSpec tiny_fleet_spec(std::size_t clients = 8) {
  fl::VirtualFleetSpec spec;
  spec.num_clients = clients;
  spec.dirichlet_beta = 0.3;
  spec.samples_per_client = 40;
  spec.test_fraction = 0.25;
  spec.min_train_samples = 8;
  spec.cache_capacity = 3;  // smaller than the fleet: eviction exercised
  spec.seed = 11;
  return spec;
}

std::shared_ptr<fl::VirtualFleet> tiny_fleet(std::size_t clients = 8) {
  return std::make_shared<fl::VirtualFleet>(tiny_fleet_spec(clients),
                                            testing::tiny_image_spec());
}

void expect_same_dataset(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i));
    const Tensor ia = a.image(i);
    const Tensor ib = b.image(i);
    ASSERT_EQ(ia.numel(), ib.numel());
    for (std::size_t p = 0; p < ia.numel(); ++p) {
      // Bitwise: the lazy path must regenerate the exact float.
      ASSERT_EQ(ia.data()[p], ib.data()[p]) << "sample " << i << " px " << p;
    }
  }
}

TEST(VirtualFleet, LazyMaterializationIsBitReproducible) {
  const auto fleet = tiny_fleet();
  const std::vector<fl::ClientData> eager = fleet->materialize_all();
  ASSERT_EQ(eager.size(), fleet->num_clients());

  // Out-of-order, repeated access through the LRU cache (capacity 3 on
  // 8 clients: plenty of eviction + regeneration).
  const std::size_t order[] = {5, 0, 7, 3, 5, 1, 6, 2, 4, 0, 7, 5};
  for (const std::size_t c : order) {
    const auto shard = fleet->get(c);
    expect_same_dataset(shard->train, eager[c].train);
    expect_same_dataset(shard->test, eager[c].test);
  }
  EXPECT_LE(fleet->resident(), 3u);
}

TEST(VirtualFleet, TrainSizesMatchMetadata) {
  const auto fleet = tiny_fleet();
  std::size_t dealt_total = 0;
  for (std::size_t c = 0; c < fleet->num_clients(); ++c) {
    EXPECT_GE(fleet->train_size(c), fleet->spec().min_train_samples);
    EXPECT_EQ(fleet->train_size(c), fleet->get(c)->train.size());
    for (const std::uint32_t n : fleet->dealt_histogram(c)) dealt_total += n;
  }
  // The deal conserves the virtual pool (modulo deterministic top-ups,
  // which only add).
  EXPECT_GE(dealt_total,
            fleet->num_clients() * fleet->spec().samples_per_client);
}

TEST(VirtualFleet, EagerVsLazyFederationsBitIdenticalAllAlgorithms) {
  const auto fleet = tiny_fleet();

  nn::Model model = nn::mlp(fleet->image_spec(), 16);
  Rng init = Rng(11).split(4);
  model.init_params(init);

  fl::FederationConfig cfg;
  cfg.seed = 11;
  cfg.threads = 2;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 8;

  fl::Federation eager(model.clone(), fleet->materialize_all(), cfg);
  fl::Federation lazy(model.clone(), fleet, cfg);

  const auto make_zoo = [] {
    std::vector<std::unique_ptr<fl::Algorithm>> algos;
    algos.push_back(std::make_unique<algorithms::FedAvg>());
    algos.push_back(std::make_unique<algorithms::FedProx>(0.05));
    algos.push_back(std::make_unique<algorithms::Cfl>(algorithms::CflConfig{
        .eps1 = 0.8, .eps2 = 1.2, .warmup_rounds = 2, .min_cluster_size = 2}));
    algos.push_back(std::make_unique<algorithms::Ifca>(
        algorithms::IfcaConfig{.num_clusters = 2, .init_perturbation = 0.1}));
    algos.push_back(
        std::make_unique<algorithms::Pacfl>(algorithms::PacflConfig{
            .subspace_rank = 3, .samples_per_class_cap = 24}));
    algos.push_back(std::make_unique<core::FedClust>(
        core::FedClustConfig{.warmup_epochs = 1, .rel_factor = 0.6}));
    return algos;
  };

  auto eager_zoo = make_zoo();
  auto lazy_zoo = make_zoo();
  constexpr std::size_t kRounds = 3;
  for (std::size_t a = 0; a < eager_zoo.size(); ++a) {
    const fl::RunResult re = eager_zoo[a]->run(eager, kRounds);
    const fl::RunResult rl = lazy_zoo[a]->run(lazy, kRounds);
    ASSERT_EQ(re.rounds.size(), rl.rounds.size()) << re.algorithm;
    for (std::size_t r = 0; r < re.rounds.size(); ++r) {
      EXPECT_EQ(re.rounds[r].weights_fp, rl.rounds[r].weights_fp)
          << re.algorithm << " diverges at round " << re.rounds[r].round;
    }
    EXPECT_EQ(re.cluster_labels, rl.cluster_labels) << re.algorithm;
  }
}

TEST(EdgeAggregation, TreeVsFlatBitIdenticalAcrossEdgeCounts) {
  fl::Federation fed = testing::make_dirichlet_federation(6);
  const std::vector<float> global = fed.template_model().flat_weights();
  const auto weights_for = [&](std::size_t) {
    return std::span<const float>(global);
  };
  std::vector<std::size_t> cohort(fed.num_clients());
  for (std::size_t i = 0; i < cohort.size(); ++i) cohort[i] = i;

  std::vector<fl::ClientUpdate> updates =
      fed.train_clients(cohort, /*round=*/0, weights_for);
  ASSERT_EQ(updates.size(), cohort.size());
  const std::vector<float> flat = fed.aggregate(updates, global);

  for (const std::size_t edges : {1u, 2u, 7u}) {
    const fl::Federation::FoldResult fr = fed.train_clients_folded(
        cohort, /*round=*/0, weights_for, net::EdgeTopology{edges});
    EXPECT_FALSE(fr.gathered);
    EXPECT_EQ(fr.contributors, cohort) << edges << " edges";
    ASSERT_EQ(fr.weights.size(), flat.size());
    EXPECT_EQ(check::weights_fingerprint(fr.weights),
              check::weights_fingerprint(flat))
        << edges << " edges diverge from flat aggregation";
  }
}

// The streaming fold over a cohort far larger than its window (4 ×
// workers, at least 8): every worker count and edge count must fold in
// slot order and reproduce flat train_clients + aggregate byte for byte.
// A double accumulator over ~100 similar updates rounds to the same float
// in almost any order, so two equal-weight clients start from ±2^40 on
// the last coordinate: while their terms are in the accumulator, every
// other client's term is rounded at ~2^-19, they cancel exactly, and any
// departure from slot order shows in the float output.
TEST(EdgeAggregation, StreamingFoldBitIdenticalAcrossWorkersAndEdges) {
  constexpr std::size_t kClients = 120;
  struct Variant {
    const char* name;
    bool int8_uploads;
    double dropout;
  };
  for (const Variant& v : {Variant{"plain", false, 0.0},
                           Variant{"int8+dropout", true, 0.2}}) {
    std::vector<float> first_flat;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << v.name << ", " << threads << " threads");
      fl::FederationConfig cfg;
      cfg.threads = threads;
      cfg.dropout = v.dropout;
      if (v.int8_uploads) {
        cfg.compression.enabled = true;
        cfg.compression.upload = compress::CodecKind::kInt8;
      }
      fl::Federation fed = testing::make_dirichlet_federation(
          kClients, 50.0, 9600, 7, cfg);
      const std::vector<float> global = fed.template_model().flat_weights();
      // The first surviving client and the last surviving one of equal
      // train size (hence equal coefficient) carry the cancelling pair.
      std::size_t plus_client = kClients;
      std::size_t minus_client = kClients;
      for (std::size_t i = 0; i < kClients && minus_client == kClients; ++i) {
        for (std::size_t j = kClients - 1; j > i; --j) {
          if (fed.client_train_size(i) == fed.client_train_size(j) &&
              !fed.client_fails(i, 1) && !fed.client_fails(j, 1)) {
            plus_client = i;
            minus_client = j;
            break;
          }
        }
      }
      ASSERT_LT(minus_client, kClients);
      std::vector<float> plus = global;
      std::vector<float> minus = global;
      plus.back() = 0x1p40f;
      minus.back() = -0x1p40f;
      const auto weights_for = [&](std::size_t c) {
        return std::span<const float>(c == plus_client    ? plus
                                      : c == minus_client ? minus
                                                          : global);
      };
      std::vector<std::size_t> cohort(kClients);
      for (std::size_t i = 0; i < kClients; ++i) cohort[i] = i;

      const std::vector<fl::ClientUpdate> updates =
          fed.train_clients(cohort, /*round=*/1, weights_for);
      ASSERT_GT(updates.size(), 2 * std::max<std::size_t>(4 * threads, 8));
      if (v.dropout > 0.0) {
        ASSERT_LT(updates.size(), kClients);
      }
      std::vector<std::size_t> survivors;
      double loss_sum = 0.0;
      for (const fl::ClientUpdate& u : updates) {
        survivors.push_back(u.client_id);
        loss_sum += u.train_loss;
      }
      const std::vector<float> flat = fed.aggregate(updates, global);
      if (first_flat.empty()) first_flat = flat;
      ASSERT_EQ(flat.size(), first_flat.size());
      EXPECT_EQ(std::memcmp(flat.data(), first_flat.data(),
                            flat.size() * sizeof(float)),
                0)
          << "flat aggregation depends on the worker count";

      for (const std::size_t edges : {1u, 3u, 8u}) {
        const fl::Federation::FoldResult fr = fed.train_clients_folded(
            cohort, /*round=*/1, weights_for, net::EdgeTopology{edges});
        EXPECT_FALSE(fr.gathered);
        EXPECT_EQ(fr.contributors, survivors) << edges << " edges";
        EXPECT_EQ(fr.mean_train_loss,
                  loss_sum / static_cast<double>(updates.size()))
            << edges << " edges";
        ASSERT_EQ(fr.weights.size(), flat.size());
        EXPECT_EQ(std::memcmp(fr.weights.data(), flat.data(),
                              flat.size() * sizeof(float)),
                  0)
            << edges << " edges diverge from flat aggregation";
      }
    }
  }
}

// A runner that throws inside the streaming fold must not wedge the
// others: the round fails with the lowest failing slot — the lowest
// client the fault plan poisons — every time, and the pool stays usable.
// The flat path names the same client at any worker count, so neither
// its longest-first dispatch nor the fold's window reaches attribution.
TEST(EdgeAggregation, FailureInsideFoldPropagates) {
  fl::FederationConfig cfg;
  cfg.audit = true;
  cfg.faults.enabled = true;
  cfg.faults.nan_prob = 0.05;
  const auto make = [&](std::size_t threads) {
    fl::FederationConfig c = cfg;
    c.threads = threads;
    return testing::make_dirichlet_federation(120, 50.0, 9600, 7, c);
  };
  fl::Federation fed = make(4);
  const std::vector<float> global = fed.template_model().flat_weights();
  const auto weights_for = [&](std::size_t) {
    return std::span<const float>(global);
  };
  std::vector<std::size_t> cohort(fed.num_clients());
  for (std::size_t i = 0; i < cohort.size(); ++i) cohort[i] = i;

  // No churn, network or quarantine here: slot s is client s.
  std::string expected;
  for (const std::size_t c : cohort) {
    if (fed.fault_plan().decide(1, c, 0) == robust::FaultKind::kNanPoison) {
      expected = std::to_string(c);
      break;
    }
  }
  ASSERT_FALSE(expected.empty()) << "the plan poisons no client";

  const auto failing_client = [](const std::string& what) {
    const std::size_t at = what.find(" client ");
    EXPECT_NE(at, std::string::npos) << what;
    if (at == std::string::npos) return std::string();
    const std::size_t begin = at + 8;
    EXPECT_NE(what.find(" update weights", begin), std::string::npos) << what;
    return what.substr(begin, what.find(' ', begin) - begin);
  };
  for (const std::size_t threads : {1u, 4u}) {
    fl::Federation flat = make(threads);
    try {
      flat.train_clients(cohort, /*round=*/1, weights_for);
      FAIL() << threads << " threads: the audit should reject a NaN upload";
    } catch (const Error& e) {
      EXPECT_EQ(failing_client(e.what()), expected)
          << threads << " threads: " << e.what();
    }
  }

  for (int call = 0; call < 3; ++call) {
    try {
      fed.train_clients_folded(cohort, /*round=*/1, weights_for,
                               net::EdgeTopology{3});
      FAIL() << "call " << call << ": the fold should reject a NaN upload";
    } catch (const Error& e) {
      EXPECT_EQ(failing_client(e.what()), expected)
          << "call " << call << ": " << e.what();
    }
  }

  std::vector<int> ran(64, 0);
  fed.aggregation_pool()->parallel_for(
      0, ran.size(), [&](std::size_t i) { ran[i] = 1; });
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1),
            static_cast<std::ptrdiff_t>(ran.size()));
}

// The fold is the sync round's aggregation under every rule and codec:
// train_clients_folded against the pre-round model must equal
// train_clients + aggregate(updates, global) byte for byte. The plain
// weighted mean streams (int8 included); the sign-SGD vote and the robust
// rules gather at root and aggregate against the reference — norm-clip
// clips deltas about it and the top-k trimmed mean fills from it. A
// gathering rule handed no reference refuses instead of anchoring at 0.
TEST(EdgeAggregation, FoldMatchesSyncRoundUnderEveryRule) {
  using robust::AggregationRule;
  struct Case {
    const char* name;
    bool compress;
    compress::CodecKind upload;
    AggregationRule rule;
    bool gathers;
  };
  const Case cases[] = {
      {"plain", false, compress::CodecKind::kIdentity,
       AggregationRule::kWeightedMean, false},
      {"int8", true, compress::CodecKind::kInt8,
       AggregationRule::kWeightedMean, false},
      {"sign", true, compress::CodecKind::kSignSgd,
       AggregationRule::kWeightedMean, true},
      {"norm_clip", false, compress::CodecKind::kIdentity,
       AggregationRule::kNormClip, true},
      {"trimmed_mean", false, compress::CodecKind::kIdentity,
       AggregationRule::kTrimmedMean, true},
      {"coordinate_median", false, compress::CodecKind::kIdentity,
       AggregationRule::kCoordinateMedian, true},
      {"topk+trimmed_mean", true, compress::CodecKind::kTopK,
       AggregationRule::kTrimmedMean, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    fl::FederationConfig cfg;
    cfg.compression.enabled = c.compress;
    cfg.compression.upload = c.upload;
    cfg.robust.rule = c.rule;
    fl::Federation fed =
        testing::make_dirichlet_federation(12, 0.3, 960, 7, cfg);
    const std::vector<float> global = fed.template_model().flat_weights();
    const auto weights_for = [&](std::size_t) {
      return std::span<const float>(global);
    };
    std::vector<std::size_t> cohort(fed.num_clients());
    for (std::size_t i = 0; i < cohort.size(); ++i) cohort[i] = i;

    const std::vector<fl::ClientUpdate> updates =
        fed.train_clients(cohort, /*round=*/0, weights_for);
    ASSERT_EQ(updates.size(), cohort.size());
    const std::vector<float> sync = fed.aggregate(updates, global);

    const fl::Federation::FoldResult fr = fed.train_clients_folded(
        cohort, /*round=*/0, weights_for, net::EdgeTopology{4}, nullptr,
        nullptr, global);
    EXPECT_EQ(fr.gathered, c.gathers);
    EXPECT_EQ(fr.contributors, cohort);
    ASSERT_EQ(fr.weights.size(), sync.size());
    EXPECT_EQ(std::memcmp(fr.weights.data(), sync.data(),
                          sync.size() * sizeof(float)),
              0)
        << "the fold diverges from the sync round";
    if (c.gathers) {
      EXPECT_THROW(fed.train_clients_folded(cohort, /*round=*/0, weights_for,
                                            net::EdgeTopology{4}),
                   Error);
    }
  }
}

TEST(EdgeAggregation, PartialKernelChainsBitIdenticalToFlatKernel) {
  constexpr std::size_t kDim = 1037;  // odd: exercises the scalar tail
  constexpr std::size_t kNum = 5;
  Rng rng(17);
  std::vector<std::vector<float>> vecs(kNum, std::vector<float>(kDim));
  std::vector<double> coeff(kNum);
  double total = 0.0;
  for (std::size_t u = 0; u < kNum; ++u) {
    for (float& x : vecs[u]) {
      x = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    coeff[u] = rng.uniform(0.1, 1.0);
    total += coeff[u];
  }
  for (double& c : coeff) c /= total;
  std::vector<const float*> srcs(kNum);
  for (std::size_t u = 0; u < kNum; ++u) srcs[u] = vecs[u].data();

  // The flat mean: one call over every source into a zeroed accumulator.
  const ops::KernelTable& kt = ops::kernels();
  std::vector<double> flat(kDim, 0.0);
  kt.weighted_accumulate_partial(srcs.data(), coeff.data(), kNum, flat.data(),
                                 0, kDim);

  // Chain 1: split the SOURCES into two batches (the edge-batch seam).
  std::vector<double> acc(kDim, 0.0);
  kt.weighted_accumulate_partial(srcs.data(), coeff.data(), 2, acc.data(), 0,
                                 kDim);
  kt.weighted_accumulate_partial(srcs.data() + 2, coeff.data() + 2, kNum - 2,
                                 acc.data(), 0, kDim);
  ASSERT_EQ(std::memcmp(acc.data(), flat.data(), kDim * sizeof(double)), 0)
      << "source-batch chain";

  // Chain 2: split the DIMENSION at a kChunkAlign boundary (the
  // thread-chunking seam).
  std::fill(acc.begin(), acc.end(), 0.0);
  const std::size_t mid = 8 * ops::kChunkAlign;
  ASSERT_LT(mid, kDim);
  kt.weighted_accumulate_partial(srcs.data(), coeff.data(), kNum, acc.data(),
                                 0, mid);
  kt.weighted_accumulate_partial(srcs.data(), coeff.data(), kNum, acc.data(),
                                 mid, kDim);
  ASSERT_EQ(std::memcmp(acc.data(), flat.data(), kDim * sizeof(double)), 0)
      << "dim-split chain";
}

TEST(ModelPool, RecycledCloneTrainsBitIdenticalToFreshClone) {
  const auto fleet = tiny_fleet(4);
  nn::Model tmpl = nn::mlp(fleet->image_spec(), 16);
  Rng init = Rng(3).split(4);
  tmpl.init_params(init);
  const std::vector<float> start = tmpl.flat_weights();

  fl::LocalTrainConfig local;
  local.epochs = 2;
  local.batch_size = 8;

  // Reference: a fresh clone.
  nn::Model fresh = tmpl.clone();
  fresh.set_flat_weights(start);
  const float fresh_loss =
      fl::train_local(fresh, fleet->get(0)->train, local, Rng(5));

  fl::ModelPool pool(tmpl, nullptr);
  {
    // Dirty a pooled clone on different data / different stream.
    fl::ModelPool::Lease lease = pool.acquire();
    lease->set_flat_weights(start);
    fl::train_local(*lease, fleet->get(1)->train, local, Rng(9));
  }
  // Reacquire the SAME (recycled) clone and repeat the reference run.
  fl::ModelPool::Lease lease = pool.acquire();
  EXPECT_EQ(pool.created(), 1u);
  lease->set_flat_weights(start);
  const float pooled_loss =
      fl::train_local(*lease, fleet->get(0)->train, local, Rng(5));
  EXPECT_EQ(pooled_loss, fresh_loss);
  EXPECT_EQ(check::weights_fingerprint(lease->flat_weights()),
            check::weights_fingerprint(fresh.flat_weights()));
}

TEST(Partition, DirichletDealClassConservesAndRepeats) {
  struct Deal {
    std::size_t client, offset, count;
    bool operator==(const Deal&) const = default;
  };
  const auto run = [](std::uint64_t seed) {
    Rng rng = Rng(seed).split(1);
    std::vector<Deal> deals;
    partition::dirichlet_deal_class(
        103, 7, 0.3, rng,
        [&](std::size_t client, std::size_t offset, std::size_t count) {
          deals.push_back({client, offset, count});
        });
    return deals;
  };
  const std::vector<Deal> a = run(3);
  const std::vector<Deal> b = run(3);
  EXPECT_EQ(a, b);  // deterministic in the rng stream

  // Deals tile [0, class_size) contiguously with positive counts.
  std::size_t cursor = 0;
  for (const Deal& d : a) {
    EXPECT_EQ(d.offset, cursor);
    EXPECT_GT(d.count, 0u);
    EXPECT_LT(d.client, 7u);
    cursor += d.count;
  }
  EXPECT_EQ(cursor, 103u);
}

TEST(Streaming, MomentsMatchTwoPass) {
  const std::vector<double> xs = {0.4, 1.7, -2.2, 3.9, 0.0, 5.5, -1.1};
  fl::StreamingMoments m;
  for (const double x : xs) m.add(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());

  EXPECT_EQ(m.count(), xs.size());
  EXPECT_NEAR(m.mean(), mean, 1e-12);
  EXPECT_NEAR(m.variance(), var, 1e-12);
  EXPECT_NEAR(m.std(), std::sqrt(var), 1e-12);
}

TEST(EdgeTopology, SlotRangesPartitionTheCohort) {
  for (const std::size_t edges : {1u, 2u, 3u, 7u, 16u}) {
    for (const std::size_t cohort : {1u, 2u, 5u, 12u, 100u}) {
      const net::EdgeTopology topo{edges};
      const std::size_t clamped = topo.clamped_edges(cohort);
      EXPECT_GE(clamped, 1u);
      EXPECT_LE(clamped, std::max<std::size_t>(1, std::min(edges, cohort)));
      std::size_t cursor = 0;
      for (std::size_t e = 0; e < clamped; ++e) {
        const auto [begin, end] = topo.slot_range(e, cohort);
        EXPECT_EQ(begin, cursor);
        EXPECT_LE(end, cohort);
        cursor = end;
      }
      EXPECT_EQ(cursor, cohort);
      EXPECT_EQ(topo.server_link_floats(cohort, 10), clamped * 10);
    }
  }
}

}  // namespace
}  // namespace fedclust
