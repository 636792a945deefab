// Crash-recovery and robustness tests: the NaN-fingerprint serialization
// regression, same-numel shape rejection, empty-dataset inference, trainer
// divergence recovery (injected NaN loss), and kill-and-resume runs that
// must match their uninterrupted twins bitwise.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "data/dataset.hpp"
#include "data/synth_cifar.hpp"
#include "models/pretrained.hpp"
#include "models/zoo.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/cache.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace nshd {
namespace {

using nn::Sequential;
using tensor::Shape;
using tensor::Tensor;

/// Every site disarmed around each test so injections cannot leak.
class FaultGuard : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::disarm_all(); }
  void TearDown() override { util::fault::disarm_all(); }
};
using Recovery = FaultGuard;
using Divergence = FaultGuard;
using KillResume = FaultGuard;

void expect_params_bitwise_equal(Sequential& a, Sequential& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<std::size_t>(pa[i]->value.numel()) *
                              sizeof(float)),
              0)
        << "param " << i << " differs";
  }
}

// --- NaN-pathological fingerprint (legacy blob header) ---

TEST_F(Recovery, NanFingerprintLayoutStillRoundTrips) {
  // Find a Linear(1, k) whose layout hash bit-casts to a NaN float.  The old
  // header check compared the fingerprint with `!=` on floats, which is
  // always true for NaN — every cached blob of such a layout was rejected
  // and the model retrained forever.
  std::int64_t nan_k = -1;
  for (std::int64_t k = 1; k <= 4096; ++k) {
    util::Rng rng(1);
    nn::Linear probe(1, k, rng);
    const std::vector<float> blob = nn::save_state(probe);
    if (std::isnan(blob[0])) {
      nan_k = k;
      break;
    }
  }
  ASSERT_GT(nan_k, 0) << "no NaN-pattern layout below k=4096";

  util::Rng rng_a(7);
  nn::Linear a(1, nan_k, rng_a);
  const std::vector<float> blob = nn::save_state(a);
  ASSERT_TRUE(std::isnan(blob[0]));

  util::Rng rng_b(8);
  nn::Linear b(1, nan_k, rng_b);
  ASSERT_TRUE(nn::load_state(b, blob));  // the regression: this was false
  ASSERT_EQ(std::memcmp(a.weight().value.data(), b.weight().value.data(),
                        static_cast<std::size_t>(nan_k) * sizeof(float)),
            0);

  // And a genuinely foreign layout is still rejected.
  util::Rng rng_c(9);
  nn::Linear c(1, nan_k + 1, rng_c);
  EXPECT_FALSE(nn::load_state(c, nn::save_state(a)));
}

// --- Same-numel shape changes must be rejected, not garbage-loaded ---

TEST_F(Recovery, SameNumelShapeChangeIsShapeMismatch) {
  // Conv2d(2->3, 1x1, no bias) and Conv2d(3->2, 1x1, no bias) hold a single
  // weight of 6 elements each, but shaped [3,2,1,1] vs [2,3,1,1].  A
  // fingerprint of numel alone cannot tell them apart.
  util::Rng rng(10);
  nn::Conv2d a(2, 3, 1, 1, 0, /*bias=*/false, rng);
  nn::Conv2d b(3, 2, 1, 1, 0, /*bias=*/false, rng);

  const util::Checkpoint cp = nn::checkpoint_state(a);
  EXPECT_EQ(nn::load_state(b, cp), util::LoadStatus::kShapeMismatch);
  EXPECT_EQ(nn::load_state(a, cp), util::LoadStatus::kOk);  // sanity

  // The legacy flat blob now hashes full dims, so it rejects the reshape too.
  EXPECT_FALSE(nn::load_state(b, nn::save_state(a)));
}

TEST_F(Recovery, CheckpointStateFileRoundTripRestoresForward) {
  util::Rng rng(11);
  Sequential a;
  a.emplace<nn::Conv2d>(1, 2, 3, 1, 1, false, rng);
  a.emplace<nn::BatchNorm2d>(2);
  a.emplace<nn::ActivationLayer>(nn::Activation::kReLU);
  // Nontrivial BatchNorm running stats must survive the trip.
  tensor::Workspace ws;
  for (int i = 0; i < 5; ++i) {
    Tensor x(Shape{4, 1, 4, 4});
    for (float& v : x.span()) v = rng.normal(0.0f, 1.0f);
    Tensor y(a.output_shape(x.shape()));
    ws.reset();
    a.forward_train_into(x.view(), y.view(), ws);
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("nshd_recovery_rt_" + std::to_string(::getpid()));
  const std::string file = (dir / "net.ckpt").string();
  ASSERT_TRUE(util::write_checkpoint_file(file, nn::checkpoint_state(a, "net")));
  const util::CheckpointLoad load = util::read_checkpoint_file(file);
  ASSERT_TRUE(load.ok());

  util::Rng rng2(99);
  Sequential b;
  b.emplace<nn::Conv2d>(1, 2, 3, 1, 1, false, rng2);
  b.emplace<nn::BatchNorm2d>(2);
  b.emplace<nn::ActivationLayer>(nn::Activation::kReLU);
  ASSERT_EQ(nn::load_state(b, load.checkpoint), util::LoadStatus::kOk);

  Tensor x(Shape{1, 1, 4, 4});
  for (float& v : x.span()) v = rng.normal(0.0f, 1.0f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::filesystem::remove_all(dir);
}

// --- Empty-dataset inference ---

TEST_F(Recovery, EmptyDatasetInferenceIsExplicit) {
  util::Rng rng(12);
  Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(4, 3, rng);
  data::Dataset empty;
  empty.num_classes = 3;
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(nn::evaluate_classifier(net, empty), 0.0);
  EXPECT_TRUE(nn::predict_logits(net, empty).empty());
}

// --- Divergence recovery in the trainer ---

data::Dataset two_blobs(std::int64_t n = 120) {
  util::Rng rng(34);
  data::Dataset ds;
  ds.num_classes = 2;
  ds.images = Tensor(Shape{n, 1, 1, 8});
  ds.labels.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t label = i % 2;
    ds.labels[static_cast<std::size_t>(i)] = label;
    for (std::int64_t j = 0; j < 8; ++j)
      ds.images[i * 8 + j] = rng.normal(label == 0 ? -1.0f : 1.0f, 0.5f);
  }
  return ds;
}

Sequential small_mlp(std::uint64_t seed = 34) {
  util::Rng rng(seed);
  Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(8, 16, rng);
  net.emplace<nn::ActivationLayer>(nn::Activation::kReLU);
  net.emplace<nn::Linear>(16, 2, rng);
  return net;
}

TEST_F(Divergence, NanLossRollsBackAndRetries) {
  const data::Dataset ds = two_blobs();
  Sequential net = small_mlp();
  nn::TrainConfig config;
  config.epochs = 20;
  config.batch_size = 16;
  config.learning_rate = 0.05f;

  util::fault::arm("trainer.nan_loss", 1);  // poison one batch of epoch 0
  const nn::TrainReport report = nn::train_classifier(net, ds, config);
  EXPECT_EQ(report.divergence_recoveries, 1);
  EXPECT_FALSE(report.diverged);
  EXPECT_GT(report.final_train_accuracy, 0.9);
  for (const nn::EpochStats& e : report.epochs) EXPECT_TRUE(std::isfinite(e.loss));
  for (nn::Param* p : net.params())
    for (const float v : p->value.span()) ASSERT_TRUE(std::isfinite(v));
}

TEST_F(Divergence, ExhaustedRetriesKeepLastFiniteWeights) {
  const data::Dataset ds = two_blobs();
  Sequential net = small_mlp();
  nn::TrainConfig config;
  config.epochs = 5;
  config.batch_size = 16;
  config.max_divergence_retries = 2;

  util::fault::arm_every("trainer.nan_loss");  // every retry fails too
  const nn::TrainReport report = nn::train_classifier(net, ds, config);
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.divergence_recoveries, 2);
  EXPECT_TRUE(report.epochs.empty());  // no epoch ever completed
  for (nn::Param* p : net.params())
    for (const float v : p->value.span()) ASSERT_TRUE(std::isfinite(v));
}

TEST_F(Divergence, RecoveryCanBeDisabled) {
  const data::Dataset ds = two_blobs();
  Sequential net = small_mlp();
  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.recover_divergence = false;

  util::fault::arm("trainer.nan_loss", 1);
  const nn::TrainReport report = nn::train_classifier(net, ds, config);
  EXPECT_EQ(report.divergence_recoveries, 0);
  ASSERT_FALSE(report.epochs.empty());
  EXPECT_TRUE(std::isnan(report.epochs.front().loss));  // recorded, not hidden
}

// --- Kill-and-resume: bitwise identity with the uninterrupted run ---

TEST_F(KillResume, TrainerResumeIsBitwiseIdentical) {
  const data::Dataset ds = two_blobs();
  nn::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 16;
  config.target_train_accuracy = 0.0f;  // no early stop: all epochs run

  // Uninterrupted twin.
  Sequential uninterrupted = small_mlp();
  nn::train_classifier(uninterrupted, ds, config);

  // Killed run: persist the epoch-1 checkpoint through the full artifact
  // encode/decode path, then die.
  std::vector<std::uint8_t> saved;
  Sequential killed = small_mlp();
  const nn::EpochHook hook = [&saved](const nn::EpochStats& stats,
                                      const nn::TrainCheckpoint& tc) {
    saved = util::encode_checkpoint(tc.to_artifact("resume-test"));
    if (stats.epoch == 1) throw std::runtime_error("injected kill");
  };
  EXPECT_THROW(nn::train_classifier(killed, ds, config, hook), std::runtime_error);
  ASSERT_FALSE(saved.empty());

  // Resume a fresh model from the persisted snapshot.
  const util::CheckpointLoad load =
      util::decode_checkpoint(saved.data(), saved.size());
  ASSERT_TRUE(load.ok());
  const auto resume = nn::TrainCheckpoint::from_artifact(load.checkpoint);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->epochs_done, 2);

  Sequential resumed = small_mlp();
  const nn::TrainReport report =
      nn::train_classifier(resumed, ds, config, {}, &*resume);
  EXPECT_EQ(report.resumed_from_epoch, 2);
  EXPECT_EQ(static_cast<std::int64_t>(report.epochs.size()), 2);

  expect_params_bitwise_equal(uninterrupted, resumed);
}

TEST_F(KillResume, MismatchedResumeCheckpointTrainsFromScratch) {
  const data::Dataset ds = two_blobs();
  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.target_train_accuracy = 0.0f;

  nn::TrainCheckpoint bogus;  // empty state: layout cannot match
  bogus.epochs_done = 1;
  Sequential from_scratch = small_mlp();
  const nn::TrainReport report =
      nn::train_classifier(from_scratch, ds, config, {}, &bogus);
  EXPECT_EQ(report.resumed_from_epoch, 0);
  EXPECT_EQ(static_cast<std::int64_t>(report.epochs.size()), 2);
}

TEST_F(KillResume, PretrainedModelResumesBitwiseAfterKill) {
  const auto base = std::filesystem::temp_directory_path() /
                    ("nshd_killresume_" + std::to_string(::getpid()));
  const util::DiskCache cache_killed((base / "killed").string());
  const util::DiskCache cache_straight((base / "straight").string());

  data::SynthCifarConfig data_config;
  data_config.num_classes = 3;
  data_config.samples_per_class = 6;
  data_config.image_size = 16;
  const data::Dataset tiny = data::make_synth_cifar(data_config);

  models::PretrainOptions options;
  options.train.epochs = 3;
  options.train.batch_size = 6;
  options.train.target_train_accuracy = 0.0f;  // run every epoch in both paths
  options.dataset_key = data_config.cache_key("train");

  // Kill right after the first epoch checkpoint lands on disk.
  util::fault::arm("pretrain.kill", 1);
  EXPECT_THROW(models::pretrained_model("mobilenetv2s", tiny, options, cache_killed),
               std::runtime_error);
  util::fault::disarm_all();

  // Second attempt resumes from the epoch checkpoint and completes.
  models::ZooModel resumed =
      models::pretrained_model("mobilenetv2s", tiny, options, cache_killed);
  // Uninterrupted twin in a separate cache.
  models::ZooModel straight =
      models::pretrained_model("mobilenetv2s", tiny, options, cache_straight);

  expect_params_bitwise_equal(resumed.net, straight.net);

  // The final weights are cached and the epoch checkpoint is cleaned up.
  models::ZooModel probe = models::make_model("mobilenetv2s", 3, options.model_seed);
  models::PretrainOptions effective = options;
  effective.train.learning_rate =
      std::min(options.train.learning_rate, probe.suggested_learning_rate);
  const std::string key = models::pretrain_cache_key("mobilenetv2s", effective, 3);
  EXPECT_TRUE(cache_killed.get_checkpoint(key).ok());
  EXPECT_EQ(cache_killed.get_checkpoint("epoch|" + key).status,
            util::LoadStatus::kNotFound);

  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace nshd
