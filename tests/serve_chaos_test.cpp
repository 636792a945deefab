// Chaos matrix for the serving engine: every serve.* fault site is armed
// against live concurrent traffic and the robustness contract is asserted —
// the process never crashes, no accepted request is ever lost (every future
// resolves with exactly one typed terminal status), the stats invariant
// `submitted == completed + timed_out + internal_errors` holds at
// quiescence, and healthy co-models keep serving bitwise-correct responses
// while a sibling model's traffic is poisoned.  Runs under ASan/TSan/UBSan
// via the check_* targets (ctest -L chaos).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "serve/engine.hpp"
#include "util/fault.hpp"

namespace nshd {
namespace {

using serve::Engine;
using serve::EngineConfig;
using serve::ModelBundle;
using serve::RequestStatus;
using serve::Response;
using serve::SubmitStatus;

constexpr std::int64_t kClasses = 4;
constexpr std::size_t kCut = 4;

data::Dataset tiny_dataset(std::int64_t per_class = 8, std::uint64_t seed = 42) {
  data::SynthCifarConfig config;
  config.num_classes = kClasses;
  config.samples_per_class = per_class;
  config.seed = seed;
  return data::make_synth_cifar(config);
}

std::unique_ptr<ModelBundle> make_trained_bundle(std::int64_t max_batch,
                                                 std::uint64_t model_seed = 7) {
  core::NshdConfig nshd_config;
  nshd_config.dim = 512;
  nshd_config.manifold_features = 32;
  nshd_config.epochs = 2;
  nshd_config.use_kd = false;
  nshd_config.train_manifold = false;
  auto bundle = std::make_unique<ModelBundle>(
      models::make_model("mobilenetv2s", kClasses, model_seed), kCut,
      nshd_config, max_batch);
  const data::Dataset train = tiny_dataset();
  const core::ExtractedFeatures features =
      core::extract_features(bundle->plan, train, max_batch);
  bundle->nshd.train(features, train.labels, /*teacher_logits=*/nullptr);
  return bundle;
}

std::vector<float> direct_scores(const ModelBundle& bundle,
                                 const tensor::Tensor& image) {
  nn::InferencePlan& plan = const_cast<ModelBundle&>(bundle).plan;
  const tensor::Tensor flat = core::extract_one(plan, image);
  const hd::Hypervector query = bundle.nshd.symbolize(flat.data());
  const tensor::Tensor sims = bundle.nshd.classifier().similarities_all(
      {query}, bundle.nshd.config().similarity);
  return {sims.data(), sims.data() + sims.numel()};
}

class ServeChaos : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::disarm_all(); }
  void TearDown() override { util::fault::disarm_all(); }
};

/// Drives `threads` submitters x `per_thread` requests against `engine` and
/// returns the futures of every accepted request.
std::vector<std::future<Response>> hammer(Engine& engine, const std::string& id,
                                          const data::Dataset& ds, int threads,
                                          int per_thread) {
  std::vector<std::vector<std::future<Response>>> per_thread_futures(
      static_cast<std::size_t>(threads));
  std::vector<std::thread> submitters;
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        std::future<Response> future;
        const std::int64_t sample = (t * per_thread + i) % ds.size();
        if (engine.submit(id, ds.sample(sample), &future) == SubmitStatus::kOk)
          per_thread_futures[static_cast<std::size_t>(t)].push_back(std::move(future));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  std::vector<std::future<Response>> futures;
  for (auto& bucket : per_thread_futures)
    for (auto& future : bucket) futures.push_back(std::move(future));
  return futures;
}

/// Resolves every future (failing the test if one is unready 10 s after
/// shutdown — a lost promise) and returns per-terminal-status counts.
struct TerminalCounts {
  std::uint64_t ok = 0, degraded = 0, timed_out = 0, internal = 0;
  std::uint64_t total() const { return ok + degraded + timed_out + internal; }
};
void resolve_all(std::vector<std::future<Response>>& futures,
                 TerminalCounts* counts) {
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "accepted request never resolved (lost promise)";
    const Response response = future.get();  // throws on a broken promise
    switch (response.status) {
      case RequestStatus::kOk: ++counts->ok; break;
      case RequestStatus::kDegraded: ++counts->degraded; break;
      case RequestStatus::kTimedOut: ++counts->timed_out; break;
      case RequestStatus::kInternalError: ++counts->internal; break;
    }
  }
}
#define RESOLVE_ALL(counts, futures) \
  ASSERT_NO_FATAL_FAILURE(resolve_all(futures, &counts))

void expect_quiescent_invariant(const serve::EngineStats& stats,
                                const TerminalCounts& counts) {
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.timed_out + stats.internal_errors);
  EXPECT_EQ(stats.submitted, counts.total());
  EXPECT_EQ(stats.completed, counts.ok + counts.degraded);
  EXPECT_EQ(stats.timed_out, counts.timed_out);
  EXPECT_EQ(stats.internal_errors, counts.internal);
}

TEST_F(ServeChaos, WorkerThrowEveryBatchNeverCrashesOrLosesRequests) {
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.batch_deadline_ms = 1.0;
  Engine engine(config);
  engine.register_model("m", make_trained_bundle(config.max_batch));
  const data::Dataset ds = tiny_dataset(4, 9);
  util::fault::arm_every("serve.worker_throw");

  auto futures = hammer(engine, "m", ds, /*threads=*/2, /*per_thread=*/12);
  engine.shutdown();
  TerminalCounts counts;
  RESOLVE_ALL(counts, futures);

  // Every execution threw, so every request drilled down to a quarantined
  // singleton — and every one of them got its typed answer.
  EXPECT_EQ(counts.internal, futures.size());
  const serve::EngineStats stats = engine.stats();
  expect_quiescent_invariant(stats, counts);
  EXPECT_GT(stats.batch_faults, 0u);
}

TEST_F(ServeChaos, BatchStallEveryBatchStillCompletesEverything) {
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.batch_deadline_ms = 1.0;
  Engine engine(config);
  engine.register_model("m", make_trained_bundle(config.max_batch));
  const data::Dataset ds = tiny_dataset(4, 9);
  util::fault::arm_every("serve.batch_stall");

  auto futures = hammer(engine, "m", ds, /*threads=*/2, /*per_thread=*/8);
  engine.shutdown();
  TerminalCounts counts;
  RESOLVE_ALL(counts, futures);

  // A stall is latency, not a fault: with no deadlines armed, everything
  // completes healthy, just slowly.
  EXPECT_EQ(counts.ok, futures.size());
  expect_quiescent_invariant(engine.stats(), counts);
}

TEST_F(ServeChaos, NanLogitsEveryBatchQuarantinesPoisonRowsOnly) {
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.batch_deadline_ms = 1.0;
  config.numeric_policy = serve::NumericPolicy::kReject;
  Engine engine(config);
  engine.register_model("m", make_trained_bundle(config.max_batch));
  const data::Dataset ds = tiny_dataset(4, 9);
  util::fault::arm_every("serve.nan_logits");

  auto futures = hammer(engine, "m", ds, /*threads=*/2, /*per_thread=*/12);
  engine.shutdown();
  TerminalCounts counts;
  RESOLVE_ALL(counts, futures);

  // Row 0 of every batch turns NaN: exactly one quarantine per batch, the
  // co-batched rows keep serving.
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(counts.internal, stats.batches);
  EXPECT_EQ(stats.numeric_faults, stats.batches);
  EXPECT_GT(counts.ok, 0u);
  expect_quiescent_invariant(stats, counts);
}

TEST_F(ServeChaos, ReloadCorruptMidTrafficKeepsOldWeightsServing) {
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.batch_deadline_ms = 1.0;
  Engine engine(config);
  engine.register_model("m", make_trained_bundle(config.max_batch));
  const data::Dataset ds = tiny_dataset(4, 9);
  const std::vector<float> before = direct_scores(*engine.bundle("m"), ds.sample(0));

  const std::string path =
      (std::string("/tmp/nshd_serve_chaos_") + std::to_string(::getpid()) + ".ckpt");
  ASSERT_TRUE(serve::save_bundle_checkpoint(engine.bundle("m")->nshd, "m", path));

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    int i = 0;
    while (!stop.load()) {
      std::future<Response> future;
      if (engine.submit("m", ds.sample(i++ % ds.size()), &future) == SubmitStatus::kOk) {
        EXPECT_EQ(future.get().status, RequestStatus::kOk);
      }
    }
  });
  util::fault::arm_every("serve.reload_corrupt");
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(engine.reload("m", path), util::LoadStatus::kNonFinite);
  util::fault::disarm_all();
  stop.store(true);
  traffic.join();

  std::future<Response> future;
  ASSERT_EQ(engine.submit("m", ds.sample(0), &future), SubmitStatus::kOk);
  const Response response = future.get();
  for (std::size_t c = 0; c < before.size(); ++c)
    EXPECT_EQ(response.scores[c], before[c]);
  EXPECT_EQ(engine.stats().reloads_failed, 4u);
  std::remove(path.c_str());
}

TEST_F(ServeChaos, DrainUnderFaultInjectionResolvesEveryAcceptedRequest) {
  // The satellite property test: 8 submitter threads race a shutdown drain
  // while faults fire mid-traffic; every kOk-accepted request must resolve
  // exactly once with a typed terminal status and the quiescent stats
  // invariant must hold to the request.
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 8;
  config.batch_deadline_ms = 1.0;
  config.queue_capacity = 64;
  config.request_deadline_ms = 200.0;  // config-default deadline path
  Engine engine(config);
  engine.register_model("m", make_trained_bundle(config.max_batch));
  const data::Dataset ds = tiny_dataset(4, 9);
  util::fault::arm("serve.worker_throw", 3);
  util::fault::arm("serve.nan_logits", 2);

  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 20;
  std::vector<std::vector<std::future<Response>>> accepted(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::future<Response> future;
        const std::int64_t sample = (t * kPerThread + i) % ds.size();
        if (engine.submit("m", ds.sample(sample), &future) == SubmitStatus::kOk)
          accepted[static_cast<std::size_t>(t)].push_back(std::move(future));
      }
    });
  }
  // Shut down while submitters are still racing: late submissions bounce
  // with kShutdown, in-flight ones drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.shutdown();
  for (auto& thread : submitters) thread.join();

  std::vector<std::future<Response>> futures;
  for (auto& bucket : accepted)
    for (auto& future : bucket) futures.push_back(std::move(future));
  TerminalCounts counts;
  RESOLVE_ALL(counts, futures);
  expect_quiescent_invariant(engine.stats(), counts);
}

TEST_F(ServeChaos, PoisonTrafficLeavesHealthyCoModelBitwiseIntact) {
  // Model "bad" is fed NaN-pixel images (quarantined typed) concurrently
  // with clean traffic to model "good"; the healthy model's responses stay
  // bitwise equal to its single-request pipeline throughout.
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.batch_deadline_ms = 1.0;
  config.numeric_policy = serve::NumericPolicy::kReject;
  Engine engine(config);
  engine.register_model("good", make_trained_bundle(config.max_batch, /*model_seed=*/7));
  engine.register_model("bad", make_trained_bundle(config.max_batch, /*model_seed=*/13));
  const data::Dataset ds = tiny_dataset(4, 9);
  constexpr int kEach = 16;

  std::vector<std::vector<float>> expected(kEach);
  for (int i = 0; i < kEach; ++i)
    expected[static_cast<std::size_t>(i)] =
        direct_scores(*engine.bundle("good"), ds.sample(i % ds.size()));

  std::thread poisoner([&] {
    for (int i = 0; i < kEach; ++i) {
      tensor::Tensor poison = ds.sample(i % ds.size());
      poison.data()[0] = std::numeric_limits<float>::quiet_NaN();
      std::future<Response> future;
      if (engine.submit("bad", poison, &future) == SubmitStatus::kOk) {
        EXPECT_EQ(future.get().status, RequestStatus::kInternalError);
      }
    }
  });
  for (int i = 0; i < kEach; ++i) {
    std::future<Response> future;
    ASSERT_EQ(engine.submit("good", ds.sample(i % ds.size()), &future),
              SubmitStatus::kOk);
    const Response response = future.get();
    EXPECT_EQ(response.status, RequestStatus::kOk);
    const std::vector<float>& want = expected[static_cast<std::size_t>(i)];
    ASSERT_EQ(response.scores.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c)
      EXPECT_EQ(response.scores[c], want[c]);
  }
  poisoner.join();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.internal_errors, static_cast<std::uint64_t>(kEach));
  EXPECT_EQ(stats.numeric_faults, static_cast<std::uint64_t>(kEach));
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.timed_out + stats.internal_errors);
}

}  // namespace
}  // namespace nshd
