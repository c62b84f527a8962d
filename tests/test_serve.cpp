// Tests for the serving subsystem: snapshot freezing + registry hot
// reload, the three routing modes (hard routing must match the FedClust
// newcomer rule exactly), and the batching engine's determinism and
// concurrency contracts.
#include "serve/batching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "cluster/routing.hpp"
#include "core/fedclust.hpp"
#include "robust/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "test_helpers.hpp"

namespace fedclust::serve {
namespace {

using testing::make_grouped_federation;
using testing::tiny_pool;

fl::FederationConfig fast_config() {
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.sgd.lr = 0.05;
  cfg.threads = 2;
  return cfg;
}

/// One trained FedClust run frozen for serving, plus a request pool.
/// Built once — training even the tiny federation dominates test time.
struct ServingSetup {
  nn::Model template_model;
  core::ClusteringOutcome outcome;
  fl::RunResult result;
  ModelSnapshot snap;                        // unpublished master copy
  std::vector<Tensor> inputs;                // (1, C, H, W) each
  std::vector<std::vector<float>> features;  // parallel to inputs
};

const ServingSetup& setup() {
  static const ServingSetup* s = [] {
    auto* out = new ServingSetup();
    auto [fed, groups] = make_grouped_federation(6, 480, 49, fast_config());
    core::FedClust algo({.warmup_epochs = 2});
    out->result = algo.run(fed, 2);
    out->outcome = *algo.last_clustering();
    out->template_model = fed.template_model().clone();
    out->snap = freeze(out->template_model, out->result, out->outcome);

    const data::Dataset pool = tiny_pool(48, 50);
    for (std::size_t i = 0; i < 24; ++i) {
      const std::size_t idx[] = {i};
      out->inputs.push_back(pool.gather(idx).images);
      out->features.push_back(out->outcome.partial_weights[i % 6]);
    }
    return out;
  }();
  return *s;
}

/// Publishes a copy of the master snapshot (registries hold a mutex and
/// cannot be returned by value).
void publish_master(ModelRegistry& reg) {
  ModelSnapshot copy = setup().snap;
  reg.publish(std::move(copy));
}

// -- freezing ------------------------------------------------------------------

TEST(Freeze, CarriesRunState) {
  const ServingSetup& s = setup();
  EXPECT_EQ(s.snap.cluster_weights, s.result.cluster_weights);
  EXPECT_EQ(s.snap.partial_weights, s.outcome.partial_weights);
  EXPECT_EQ(s.snap.labels, s.outcome.labels);
  EXPECT_EQ(s.snap.num_clusters(), cluster::num_clusters(s.outcome.labels));
  EXPECT_NE(s.snap.weights_fp, 0u);
  // Cached sqnorms must be exactly what the routing primitive computes.
  EXPECT_EQ(s.snap.anchor_sqnorms,
            cluster::anchor_sqnorms(s.outcome.partial_weights));
}

TEST(Freeze, CheckpointPathIsBitIdenticalToRunPath) {
  const std::string path = "/tmp/fedclust_serve_freeze_test.ckpt";
  auto [fed, groups] = make_grouped_federation(4, 320, 57, fast_config());
  core::FedClust algo({.warmup_epochs = 2,
                       .checkpoint_every = 1,
                       .checkpoint_path = path});
  const fl::RunResult r = algo.run(fed, 2);
  ASSERT_TRUE(std::filesystem::exists(path));

  const ModelSnapshot from_run =
      freeze(fed.template_model(), r, *algo.last_clustering());
  const ModelSnapshot from_ckpt =
      freeze_checkpoint(fed.template_model(), robust::load_checkpoint(path));
  std::filesystem::remove(path);

  EXPECT_EQ(from_run.cluster_weights, from_ckpt.cluster_weights);
  EXPECT_EQ(from_run.partial_weights, from_ckpt.partial_weights);
  EXPECT_EQ(from_run.labels, from_ckpt.labels);
  EXPECT_EQ(from_run.anchor_sqnorms, from_ckpt.anchor_sqnorms);
  EXPECT_EQ(from_run.weights_fp, from_ckpt.weights_fp);
}

TEST(Freeze, RejectsUnclusteredResult) {
  const ServingSetup& s = setup();
  fl::RunResult global;  // e.g. FedAvg: no per-cluster models
  EXPECT_THROW(freeze(s.template_model, global, s.outcome), Error);
}

TEST(Freeze, RejectsWeightCountMismatch) {
  const ServingSetup& s = setup();
  fl::RunResult bad = s.result;
  bad.cluster_weights[0].pop_back();
  EXPECT_THROW(freeze(s.template_model, bad, s.outcome), Error);
}

// -- registry ------------------------------------------------------------------

TEST(Registry, PublishAssignsMonotonicVersions) {
  ModelRegistry reg;
  EXPECT_EQ(reg.version(), 0u);
  EXPECT_EQ(reg.snapshot(), nullptr);

  ModelSnapshot a = setup().snap;
  EXPECT_EQ(reg.publish(std::move(a)), 1u);
  const auto first = reg.snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);

  ModelSnapshot b = setup().snap;
  EXPECT_EQ(reg.publish(std::move(b)), 2u);
  EXPECT_EQ(reg.version(), 2u);
  // The old snapshot stays alive and readable through its shared_ptr.
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->weights_fp, reg.snapshot()->weights_fp);
}

// -- routing -------------------------------------------------------------------

TEST(Router, HardModeMatchesNewcomerAssignment) {
  const ServingSetup& s = setup();
  auto [fed, groups] = make_grouped_federation(6, 480, 49, fast_config());
  core::FedClust algo({.warmup_epochs = 2});

  const Router router(std::make_shared<const ModelSnapshot>(s.snap),
                      RouterConfig{.mode = RouteMode::kHard});
  const data::SyntheticGenerator gen(testing::tiny_image_spec(), 49);
  Rng rng(50);
  for (std::size_t g = 0; g < 2; ++g) {
    std::vector<std::size_t> counts(4, 0);
    counts[2 * g] = 40;
    counts[2 * g + 1] = 40;
    const data::Dataset newcomer = gen.generate_per_class(counts, rng);

    std::vector<float> partial;
    const std::size_t assigned =
        algo.assign_newcomer(s.template_model, newcomer, fed.config().local,
                             Rng(51 + g), s.outcome, &partial);
    const RouteDecision d = router.route(partial);
    EXPECT_EQ(d.cluster, assigned) << "group " << g;
    // The cached-sqnorm distances must equal the uncached newcomer math
    // exactly (same kernels, same clamp, same order).
    EXPECT_EQ(d.distances,
              cluster::mean_cluster_distances(
                  partial, s.outcome.partial_weights, s.outcome.labels,
                  s.snap.num_clusters()));
    EXPECT_EQ(d.weights[d.cluster], 1.0);
  }
}

TEST(Router, GaussianWeightsSumToOneAndPeakAtNearest) {
  const std::vector<double> d = {1.0, 2.0, 0.5};
  const std::vector<double> w = gaussian_weights(d, 0.0);
  double sum = 0.0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(w[2], w[0]);
  EXPECT_GT(w[0], w[1]);
  EXPECT_EQ(cluster::nearest_cluster(d), 2u);
}

TEST(Router, GaussianWeightsZeroForAnchorlessClusters) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> w = gaussian_weights({1.0, inf, 3.0}, 1.0);
  EXPECT_EQ(w[1], 0.0);
  EXPECT_GT(w[0], w[2]);
  EXPECT_NEAR(w[0] + w[2], 1.0, 1e-12);
  EXPECT_THROW(gaussian_weights({inf, inf}, 1.0), Error);
}

TEST(Router, LargerSigmaFlattensTheMix) {
  const std::vector<double> d = {1.0, 4.0};
  const std::vector<double> sharp = gaussian_weights(d, 0.5);
  const std::vector<double> flat = gaussian_weights(d, 10.0);
  EXPECT_GT(sharp[0], flat[0]);
  EXPECT_LT(std::abs(flat[0] - flat[1]), std::abs(sharp[0] - sharp[1]));
}

TEST(Router, SoftModeWeightsFollowDistances) {
  const ServingSetup& s = setup();
  const Router router(std::make_shared<const ModelSnapshot>(s.snap),
                      RouterConfig{.mode = RouteMode::kSoft});
  const RouteDecision d = router.route(s.features[0]);
  ASSERT_EQ(d.weights.size(), s.snap.num_clusters());
  double sum = 0.0;
  for (double x : d.weights) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // The hard winner carries the largest soft weight.
  for (double x : d.weights) EXPECT_LE(x, d.weights[d.cluster]);
}

TEST(Router, EnsembleModeIgnoresFeatures) {
  const ServingSetup& s = setup();
  const Router router(std::make_shared<const ModelSnapshot>(s.snap),
                      RouterConfig{.mode = RouteMode::kEnsemble});
  const RouteDecision d = router.route({});  // empty features are fine
  EXPECT_TRUE(d.distances.empty());
  EXPECT_TRUE(d.weights.empty());
}

TEST(Router, ParsesModeNames) {
  EXPECT_STREQ(route_mode_name(RouteMode::kSoft), "soft");
}

// -- batching engine -----------------------------------------------------------

TEST(Engine, BatchedMatchesUnbatchedBitwise) {
  constexpr std::size_t kRequests = 200;  // per (mode, workers, batch) cell
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  for (const RouteMode mode :
       {RouteMode::kHard, RouteMode::kSoft, RouteMode::kEnsemble}) {
    // The unbatched reference, computed once per mode.
    EngineConfig ref_cfg;
    ref_cfg.router.mode = mode;
    BatchingEngine reference(registry, ref_cfg);
    std::vector<InferenceResult> expected;
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
      expected.push_back(reference.infer(i, s.inputs[i], s.features[i]));
    }

    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t max_batch :
           {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
        EngineConfig cfg;
        cfg.router.mode = mode;
        cfg.max_batch = max_batch;
        cfg.max_delay_ms = 2.0;  // encourage real multi-row batches
        cfg.workers = workers;
        BatchingEngine engine(registry, cfg);

        // Distinct ids cycle over the inputs, so each input is served
        // several times per cell, inside batches of different make-up.
        std::vector<std::future<InferenceResult>> futures;
        for (std::size_t r = 0; r < kRequests; ++r) {
          const std::size_t i = r % s.inputs.size();
          futures.push_back(engine.submit(r, s.inputs[i], s.features[i]));
        }
        for (std::size_t r = 0; r < futures.size(); ++r) {
          const InferenceResult got = futures[r].get();
          const InferenceResult& want = expected[r % s.inputs.size()];
          SCOPED_TRACE(::testing::Message()
                       << route_mode_name(mode) << " workers=" << workers
                       << " max_batch=" << max_batch << " request " << r);
          EXPECT_EQ(got.id, r);
          EXPECT_EQ(got.cluster, want.cluster);
          EXPECT_EQ(got.weights, want.weights);  // exact doubles
          EXPECT_EQ(got.probs, want.probs);      // exact floats
          EXPECT_EQ(got.snapshot_version, want.snapshot_version);
          EXPECT_GE(got.batch_rows, 1u);
        }
      }
    }
  }
}

TEST(Engine, ManyProducersEachRequestAnsweredExactlyOnce) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 0.5;
  cfg.workers = 4;
  BatchingEngine engine(registry, cfg);

  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kPerProducer = 40;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t r = 0; r < kPerProducer; ++r) {
        const std::uint64_t id = p * kPerProducer + r;
        const std::size_t i = id % s.inputs.size();
        futures[p].push_back(engine.submit(id, s.inputs[i], s.features[i]));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  std::vector<bool> answered(kProducers * kPerProducer, false);
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (auto& f : futures[p]) {
      const InferenceResult res = f.get();  // throws if unanswered/failed
      ASSERT_LT(res.id, answered.size());
      EXPECT_FALSE(answered[res.id]) << "request answered twice";
      answered[res.id] = true;
      EXPECT_EQ(res.probs.size(), 4u);
    }
  }
  EXPECT_TRUE(std::all_of(answered.begin(), answered.end(),
                          [](bool b) { return b; }));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kProducers * kPerProducer);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_EQ(stats.latency_ms.count(), kProducers * kPerProducer);
}

TEST(Engine, HotReloadServesNewVersionWithoutRestart) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.workers = 2;
  BatchingEngine engine(registry, cfg);

  const InferenceResult before =
      engine.submit(0, s.inputs[0], s.features[0]).get();
  EXPECT_EQ(before.snapshot_version, 1u);

  // Publish a perturbed generation; the running engine must pick it up.
  ModelSnapshot next = s.snap;
  for (auto& w : next.cluster_weights) {
    for (float& x : w) x *= 0.5f;
  }
  registry.publish(std::move(next));

  const InferenceResult after =
      engine.submit(1, s.inputs[0], s.features[0]).get();
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_NE(after.probs, before.probs);  // different weights, same input
  // The reference path reloads too.
  EXPECT_EQ(engine.infer(2, s.inputs[0], s.features[0]).snapshot_version, 2u);
}

TEST(Engine, StopAnswersEverythingThenRejectsSubmits) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 16;
  cfg.max_delay_ms = 50.0;  // workers would happily wait; stop must not
  BatchingEngine engine(registry, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(i, s.inputs[i], s.features[i]));
  }
  engine.stop();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(engine.submit(99, s.inputs[0], s.features[0]), Error);
}

TEST(Engine, BadRequestFailsItsFutureNotTheWorker) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_delay_ms = 0.0;  // keep the bad request in its own batch
  BatchingEngine engine(registry, cfg);

  std::future<InferenceResult> bad =
      engine.submit(0, s.inputs[0], {1.0f, 2.0f});  // wrong feature length
  EXPECT_THROW(bad.get(), Error);
  // The worker survived and serves the next request normally.
  const InferenceResult ok =
      engine.submit(1, s.inputs[0], s.features[0]).get();
  EXPECT_EQ(ok.probs.size(), 4u);

  // Single-sample contract is enforced at submit time.
  EXPECT_THROW(engine.submit(2, Tensor({2, 1, 8, 8}), s.features[0]), Error);
}

// -- overload control ----------------------------------------------------------

TEST(Engine, BoundedQueueRejectsWhenSaturated) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 1;  // each admitted request costs one full worker cycle
  cfg.max_delay_ms = 0.0;
  cfg.workers = 1;
  cfg.max_queue = 2;
  BatchingEngine engine(registry, cfg);

  // A tight submit loop pushes orders of magnitude faster than one worker
  // can forward, so the 2-deep queue must fill within a few iterations.
  std::vector<std::future<InferenceResult>> accepted;
  bool saturated = false;
  for (std::size_t i = 0; i < 2000 && !saturated; ++i) {
    try {
      accepted.push_back(engine.submit(i, s.inputs[i % s.inputs.size()],
                                       s.features[i % s.features.size()]));
    } catch (const QueueFullError&) {
      saturated = true;
    }
  }
  EXPECT_TRUE(saturated);
  EXPECT_GE(engine.stats().rejected, 1u);

  // Admission is all-or-nothing: every admitted request is answered.
  engine.stop();
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());
}

TEST(Engine, DeadlinedRequestsTimeOutInsteadOfDangling) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_ms = 0.0;
  cfg.workers = 1;
  BatchingEngine engine(registry, cfg);

  // The undeadlined head request occupies the worker; the burst behind it
  // carries a deadline that has effectively already passed (1 ns), so
  // every one of them must be expired by the time it is dequeued —
  // dequeue happens microseconds after submit at the very fastest.
  std::future<InferenceResult> head =
      engine.submit(0, s.inputs[0], s.features[0]);
  std::vector<std::future<InferenceResult>> doomed;
  for (std::size_t i = 1; i <= 10; ++i) {
    doomed.push_back(engine.submit(i, s.inputs[i % s.inputs.size()],
                                   s.features[i % s.features.size()],
                                   /*timeout_ms=*/1e-6));
  }
  EXPECT_NO_THROW(head.get());
  for (auto& f : doomed) EXPECT_THROW(f.get(), RequestTimeoutError);
  EXPECT_EQ(engine.stats().timeouts, 10u);

  // The worker survived the expiry storm and still serves live traffic.
  EXPECT_EQ(engine.submit(99, s.inputs[0], s.features[0]).get().probs.size(),
            4u);
}

TEST(Engine, ConfigDefaultTimeoutAppliesWithoutPerCallOverride) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_ms = 0.0;
  cfg.workers = 1;
  cfg.default_timeout_ms = 1e-6;  // every request expires before dequeue
  BatchingEngine engine(registry, cfg);

  std::future<InferenceResult> f = engine.submit(0, s.inputs[0], s.features[0]);
  EXPECT_THROW(f.get(), RequestTimeoutError);
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(Engine, StopDrainsDeadlinedRequestsWithoutDanglingPromises) {
  const ServingSetup& s = setup();
  ModelRegistry registry;
  publish_master(registry);

  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 50.0;
  cfg.workers = 1;
  BatchingEngine engine(registry, cfg);

  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(i, s.inputs[i % s.inputs.size()],
                                    s.features[i % s.features.size()],
                                    /*timeout_ms=*/1e-6));
  }
  engine.stop();
  // Every future resolves — with a timeout here, never a broken promise.
  std::size_t timed_out = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const RequestTimeoutError&) {
      ++timed_out;
    }
  }
  EXPECT_EQ(timed_out, futures.size());
  EXPECT_EQ(engine.stats().timeouts, futures.size());
}

}  // namespace
}  // namespace fedclust::serve
