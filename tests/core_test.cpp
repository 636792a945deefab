// Tests for src/core: feature extraction, the manifold learner and its
// HD-decoded training signal, Algorithm 1's update vector, and NSHD
// end-to-end on a small synthetic problem.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/experiment.hpp"
#include "core/feature_extractor.hpp"
#include "core/manifold.hpp"
#include "core/nshd.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "tensor/ops.hpp"

namespace nshd::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- FeatureExtractor ---

TEST(FeatureExtractor, MatchesDirectForward) {
  models::ZooModel m = models::make_mobilenetv2s(4, 3);
  data::SynthCifarConfig config;
  config.num_classes = 4;
  config.samples_per_class = 3;
  const data::Dataset ds = data::make_synth_cifar(config);

  const ExtractedFeatures feats = extract_features(m, 5, ds, /*batch_size=*/5);
  EXPECT_EQ(feats.values.shape()[0], ds.size());
  EXPECT_EQ(feats.values.shape()[1], m.feature_dim_at(5));

  // Row 7 must equal a single-sample forward.
  const Tensor one = extract_one(m, 5, ds.sample(7));
  const std::int64_t f = feats.values.shape()[1];
  for (std::int64_t i = 0; i < f; ++i) {
    EXPECT_NEAR(feats.values.at(7, i), one[i], 1e-4f);
  }
}

// --- ManifoldLearner ---

TEST(Manifold, SpatialPoolHalvesExtent) {
  ManifoldConfig config;
  config.output_features = 10;
  const ManifoldLearner ml(Shape{4, 6, 6}, config);
  EXPECT_EQ(ml.input_features(), 4 * 3 * 3);
  EXPECT_EQ(ml.output_features(), 10);
  EXPECT_EQ(ml.raw_features(), 4 * 6 * 6);
}

TEST(Manifold, SpatialPoolTakesMaxima) {
  ManifoldConfig config;
  config.output_features = 2;
  const ManifoldLearner ml(Shape{1, 4, 4}, config);
  Tensor feats(Shape{16});
  feats.fill(-5.0f);
  feats[0] = 1.0f; feats[1] = -2.0f; feats[4] = 0.5f; feats[5] = 0.9f;
  const Tensor pooled = ml.pool(feats);
  EXPECT_EQ(pooled.numel(), 4);
  EXPECT_FLOAT_EQ(pooled[0], 1.0f);  // max of the top-left 2x2 window
}

TEST(Manifold, SmallMapsPassThroughUnpooled) {
  // 2x2 (and smaller) activations are not pooled: collapsing them would
  // discard 3/4 of the information entering the FC regressor.
  ManifoldConfig config;
  config.output_features = 3;
  const ManifoldLearner small(Shape{8, 2, 2}, config);
  EXPECT_EQ(small.input_features(), 32);
  const ManifoldLearner flat(Shape{8, 1, 1}, config);
  EXPECT_EQ(flat.input_features(), 8);
  Tensor feats(Shape{8});
  for (std::int64_t i = 0; i < 8; ++i) feats[i] = static_cast<float>(i);
  const Tensor pooled = flat.pool(feats);
  EXPECT_EQ(pooled.numel(), 8);
  EXPECT_FLOAT_EQ(pooled[7], 7.0f);
}

TEST(Manifold, CompressIsAffine) {
  ManifoldConfig config;
  config.output_features = 2;
  ManifoldLearner ml(Shape{1, 1, 1}, config);
  // One (pass-through) feature -> weight [2,1].
  ml.weight()[0] = 2.0f;
  ml.weight()[1] = -1.0f;
  Tensor pooled(Shape{1});
  pooled[0] = 3.0f;
  const Tensor v = ml.compress(pooled);
  EXPECT_FLOAT_EQ(v[0], 6.0f);
  EXPECT_FLOAT_EQ(v[1], -3.0f);
}

TEST(Manifold, ParameterAndMacCounts) {
  ManifoldConfig config;
  config.output_features = 100;
  const ManifoldLearner ml(Shape{32, 4, 4}, config);
  EXPECT_EQ(ml.parameter_count(), 32 * 2 * 2 * 100 + 100);
  EXPECT_EQ(ml.macs_per_sample(), 32 * 2 * 2 * 100);
}

TEST(Manifold, HdErrorUpdateReducesAlignedLoss) {
  // Construct a 1-sample problem: after the update, re-encoding the same
  // sample must move the pre-sign activations against the supplied error
  // gradient (i.e. the FC actually descends).
  util::Rng rng(5);
  ManifoldConfig config;
  config.output_features = 16;
  config.learning_rate = 0.05f;
  ManifoldLearner ml(Shape{4, 4, 4}, config);
  hd::RandomProjection projection(128, 16, rng);

  Tensor feats(Shape{64});
  for (float& v : feats.span()) v = rng.normal();
  const Tensor pooled = ml.pool(feats);
  Tensor pre_sign;
  projection.encode(ml.compress(pooled), pre_sign);

  // Target: push pre-sign activations toward +infinity on every dimension
  // (g_h = -1 everywhere). After several updates, sum(pre_sign) must rise.
  const double before = tensor::sum(projection.project(ml.compress(pooled)));
  Tensor g_h = Tensor::full(Shape{128}, -1.0f);
  for (int it = 0; it < 10; ++it) {
    Tensor ps;
    projection.encode(ml.compress(pooled), ps);
    ml.apply_hd_error(projection, g_h, ps, pooled);
  }
  const double after = tensor::sum(projection.project(ml.compress(pooled)));
  EXPECT_GT(after, before);
}

TEST(Manifold, IdentitySteUpdatesMoreAggressively) {
  // With identical inputs, the clipped STE can only zero out a subset of the
  // gradient; identity applies all of it.
  util::Rng rng(6);
  ManifoldConfig clipped;
  clipped.output_features = 8;
  clipped.ste = SteMode::kClipped;
  ManifoldConfig identity = clipped;
  identity.ste = SteMode::kIdentity;
  ManifoldLearner a(Shape{2, 4, 4}, clipped);
  ManifoldLearner b(Shape{2, 4, 4}, identity);
  hd::RandomProjection projection(64, 8, rng);

  Tensor feats(Shape{32});
  for (float& v : feats.span()) v = rng.normal();
  const Tensor pooled = a.pool(feats);
  Tensor pre_sign;
  projection.encode(a.compress(pooled), pre_sign);
  // Spike one dimension of pre_sign far beyond 3 sigma so clipping must
  // mask it.
  Tensor spiked = pre_sign;
  spiked[0] = 1000.0f;
  Tensor g_h(Shape{64});
  g_h[0] = 5.0f;  // gradient only on the spiked (clipped-away) dimension

  const Tensor wa_before = a.weight();
  const Tensor wb_before = b.weight();
  a.apply_hd_error(projection, g_h, spiked, pooled);
  b.apply_hd_error(projection, g_h, spiked, pooled);
  double delta_a = 0.0, delta_b = 0.0;
  for (std::int64_t i = 0; i < a.weight().numel(); ++i) {
    delta_a += std::fabs(a.weight()[i] - wa_before[i]);
    delta_b += std::fabs(b.weight()[i] - wb_before[i]);
  }
  EXPECT_EQ(delta_a, 0.0);  // fully masked
  EXPECT_GT(delta_b, 0.0);
}

// --- kd_update_vector (Algorithm 1) ---

TEST(KdUpdate, WithoutTeacherIsMassUpdate) {
  const std::vector<float> sims{0.2f, 0.7f, -0.1f};
  const auto u = kd_update_vector(sims, 0, nullptr, 0.7f, 15.0f);
  EXPECT_FLOAT_EQ(u[0], 1.0f - 0.2f);
  EXPECT_FLOAT_EQ(u[1], -0.7f);
  EXPECT_FLOAT_EQ(u[2], 0.1f);
}

TEST(KdUpdate, AlphaZeroIgnoresTeacher) {
  const std::vector<float> sims{0.2f, 0.7f};
  const float teacher[] = {10.0f, -10.0f};
  const auto with = kd_update_vector(sims, 0, teacher, 0.0f, 15.0f);
  const auto without = kd_update_vector(sims, 0, nullptr, 0.0f, 15.0f);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(with[i], without[i], 1e-6f);
}

TEST(KdUpdate, TeacherPullsTowardItsPrediction) {
  // Teacher confident in class 1; student similarities equal. The distilled
  // component must push class 1 up and class 0 down.
  const std::vector<float> sims{0.3f, 0.3f};
  const float teacher[] = {-5.0f, 5.0f};
  const auto u = kd_update_vector(sims, 0, teacher, 1.0f, 4.0f);
  EXPECT_LT(u[0], 0.0f);
  EXPECT_GT(u[1], 0.0f);
}

TEST(KdUpdate, HigherTemperatureSoftensDistillation) {
  const std::vector<float> sims{0.0f, 0.0f};
  const float teacher[] = {8.0f, -8.0f};
  const auto sharp = kd_update_vector(sims, 0, teacher, 1.0f, 2.0f);
  const auto soft = kd_update_vector(sims, 0, teacher, 1.0f, 30.0f);
  EXPECT_GT(sharp[0], soft[0]);
}

TEST(KdUpdate, ConvexMixOfComponents) {
  const std::vector<float> sims{0.1f, 0.5f};
  const float teacher[] = {3.0f, -1.0f};
  const auto gt_only = kd_update_vector(sims, 0, teacher, 0.0f, 10.0f);
  const auto kd_only = kd_update_vector(sims, 0, teacher, 1.0f, 10.0f);
  const auto mixed = kd_update_vector(sims, 0, teacher, 0.4f, 10.0f);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(mixed[c], 0.6f * gt_only[c] + 0.4f * kd_only[c], 1e-5f);
  }
}

// --- NSHD end-to-end on a tiny problem ---

struct TinyWorld {
  models::ZooModel model = models::make_mobilenetv2s(4, 7);
  data::Dataset train, test;
  ExtractedFeatures train_feats, test_feats;
  tensor::Tensor teacher_logits;

  explicit TinyWorld(std::size_t cut) {
    data::SynthCifarConfig config;
    config.num_classes = 4;
    config.samples_per_class = 40;
    config.noise_stddev = 0.25f;
    config.distractor_strength = 0.4f;
    config.jitter_fraction = 0.15f;
    train = data::make_synth_cifar(config, 0);
    config.samples_per_class = 10;
    test = data::make_synth_cifar(config, 1);

    nn::TrainConfig tc;
    tc.epochs = 12;
    tc.batch_size = 20;
    tc.target_train_accuracy = 0.97f;
    nn::train_classifier(model.net, train, tc);

    train_feats = extract_features(model, cut, train);
    test_feats = extract_features(model, cut, test);
    teacher_logits = nn::predict_logits(model.net, train);
  }
};

/// Shared across tests — building it (CNN pretraining included) is the
/// expensive part, and every test only reads from it or trains its own NSHD
/// on the extracted features.
TinyWorld& tiny_world() {
  static TinyWorld world(14);
  return world;
}

TEST(Nshd, LearnsAboveChanceAndPredictsConsistently) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 1000;
  config.epochs = 8;
  NshdModel nshd(world.model, 14, config);
  nshd.train(world.train_feats, world.train.labels, &world.teacher_logits);

  const double train_acc = nshd.evaluate(world.train_feats, world.train.labels);
  const double test_acc = nshd.evaluate(world.test_feats, world.test.labels);
  EXPECT_GT(train_acc, 0.8);
  EXPECT_GT(test_acc, 0.5);  // far above the 0.25 chance level

  // predict() and predict_image() agree.
  const std::int64_t direct = nshd.predict(world.test_feats.values.data());
  const std::int64_t end_to_end = nshd.predict_image(world.test.sample(0));
  EXPECT_EQ(direct, end_to_end);
}

TEST(Nshd, BaselineConfigDisablesManifoldAndKd) {
  const NshdConfig config = baseline_hd_config(2000);
  EXPECT_FALSE(config.use_kd);
  EXPECT_FALSE(config.use_manifold);
  EXPECT_EQ(config.dim, 2000);

  TinyWorld& world = tiny_world();
  NshdModel baseline(world.model, 14, config);
  EXPECT_EQ(baseline.encoded_features(), world.model.feature_dim_at(14));
  EXPECT_EQ(baseline.manifold(), nullptr);
  baseline.train(world.train_feats, world.train.labels, nullptr);
  EXPECT_GT(baseline.evaluate(world.test_feats, world.test.labels), 0.5);
}

TEST(Nshd, ManifoldReducesEncodedFeatures) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  config.manifold_features = 32;
  NshdModel nshd(world.model, 14, config);
  EXPECT_EQ(nshd.encoded_features(), 32);
  ASSERT_NE(nshd.manifold(), nullptr);
  EXPECT_LT(nshd.manifold()->output_features(),
            world.model.feature_dim_at(14));
}

TEST(Nshd, SymbolizeAllMatchesSymbolize) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  NshdModel nshd(world.model, 14, config);
  const auto all = nshd.symbolize_all(world.test_feats);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(world.test.size()));
  const auto one = nshd.symbolize(world.test_feats.values.data());
  EXPECT_EQ(all[0], one);
}

TEST(Nshd, SymbolizeAllHealthScanFlagsRowsWithoutChangingHypervectors) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  NshdModel nshd(world.model, 14, config);
  ASSERT_NE(nshd.manifold(), nullptr);

  ExtractedFeatures feats = world.test_feats.select_rows({0, 1, 2, 3});
  const std::int64_t f = feats.values.shape()[1];
  // Row 1: a NaN feature.  Row 2: finite features at FLT_MAX, which
  // overflow the manifold FC, so only the encoder input is non-finite.
  feats.values.at(1, f / 2) = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t i = 0; i < f; ++i)
    feats.values.at(2, i) = std::numeric_limits<float>::max();

  const auto plain = nshd.symbolize_all(feats);
  std::vector<NshdModel::RowHealth> health;
  const auto scanned = nshd.symbolize_all(feats, &health);
  ASSERT_EQ(plain.size(), 4u);
  ASSERT_EQ(scanned.size(), 4u);
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], scanned[i]) << "row " << i;
  using Health = NshdModel::RowHealth;
  EXPECT_EQ(health, (std::vector<Health>{Health::kClean, Health::kBadFeatures,
                                         Health::kBadEncoding, Health::kClean}));
}

TEST(Nshd, TrainStatsTrackEpochs) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  config.epochs = 5;
  NshdModel nshd(world.model, 14, config);
  const NshdTrainStats stats =
      nshd.train(world.train_feats, world.train.labels, &world.teacher_logits);
  // Two-phase schedule: `epochs` manifold-fitting epochs plus `epochs` of
  // KD retraining over the frozen encoder.
  EXPECT_EQ(stats.epoch_train_accuracy.size(), 10u);
  EXPECT_GT(stats.seconds, 0.0);
  // Training accuracy must not collapse over the run (small epoch-to-epoch
  // jitter is inherent to the online MASS updates).
  EXPECT_GE(stats.epoch_train_accuracy.back(),
            stats.epoch_train_accuracy.front() - 0.05);
}

TEST(KdRetrain, RunsOnCachedHypervectors) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  NshdModel nshd(world.model, 14, config);
  const auto hvs = nshd.symbolize_all(world.train_feats);
  nshd.classifier().bundle_init(hvs, world.train.labels);

  KdRetrainConfig retrain;
  retrain.epochs = 6;
  const NshdTrainStats stats = kd_retrain(
      nshd.classifier(), hvs, world.train.labels, &world.teacher_logits, retrain);
  EXPECT_EQ(stats.epoch_train_accuracy.size(), 6u);
  EXPECT_GT(stats.epoch_train_accuracy.back(), 0.5);
}

TEST(Nshd, DecodedPrototypesAlignWithClassMeans) {
  // Interpretability primitive: P^T C_c must be more similar to the mean
  // manifold output of class c than to other classes' means.
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 1000;
  config.epochs = 8;
  NshdModel nshd(world.model, 14, config);
  nshd.train(world.train_feats, world.train.labels, &world.teacher_logits);

  const std::int64_t k = 4;
  const std::int64_t f_hat = nshd.encoded_features();
  // Per-class mean of manifold outputs.
  std::vector<Tensor> means(static_cast<std::size_t>(k), Tensor(Shape{f_hat}));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(k), 0);
  const std::int64_t n = world.train_feats.values.shape()[0];
  const std::int64_t f = world.train_feats.values.shape()[1];
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor v = nshd.manifold()->forward(world.train_feats.values.data() + i * f);
    const std::int64_t label = world.train.labels[static_cast<std::size_t>(i)];
    tensor::add_inplace(means[static_cast<std::size_t>(label)], v);
    ++counts[static_cast<std::size_t>(label)];
  }
  for (std::int64_t c = 0; c < k; ++c)
    tensor::scale_inplace(means[static_cast<std::size_t>(c)],
                          1.0f / static_cast<float>(counts[static_cast<std::size_t>(c)]));

  auto cosine = [](const Tensor& a, const Tensor& b) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      dot += static_cast<double>(a[i]) * b[i];
      na += static_cast<double>(a[i]) * a[i];
      nb += static_cast<double>(b[i]) * b[i];
    }
    return dot / std::sqrt(na * nb + 1e-12);
  };

  std::int64_t aligned = 0;
  for (std::int64_t c = 0; c < k; ++c) {
    const Tensor proto = nshd.decode_class_prototype(c);
    double own = cosine(proto, means[static_cast<std::size_t>(c)]);
    bool best = true;
    for (std::int64_t other = 0; other < k; ++other) {
      if (other != c && cosine(proto, means[static_cast<std::size_t>(other)]) >= own)
        best = false;
    }
    if (best) ++aligned;
  }
  EXPECT_GE(aligned, 3);  // at least 3 of 4 prototypes align with their class
}

TEST(Nshd, SaveLoadRoundTrip) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  config.epochs = 4;
  NshdModel trained(world.model, 14, config);
  trained.train(world.train_feats, world.train.labels, &world.teacher_logits);
  const std::vector<float> blob = trained.save_state();

  NshdModel restored(world.model, 14, config);
  ASSERT_TRUE(restored.load_state(blob));
  const std::int64_t f = world.test_feats.values.shape()[1];
  for (std::int64_t i = 0; i < world.test.size(); ++i) {
    const float* row = world.test_feats.values.data() + i * f;
    EXPECT_EQ(trained.predict(row), restored.predict(row));
  }
}

TEST(Nshd, LoadRejectsMismatchedLayout) {
  TinyWorld& world = tiny_world();
  NshdConfig a_config;
  a_config.dim = 500;
  NshdConfig b_config;
  b_config.dim = 600;
  NshdModel a(world.model, 14, a_config);
  NshdModel b(world.model, 14, b_config);
  EXPECT_FALSE(b.load_state(a.save_state()));
}

TEST(Nshd, DeterministicGivenSeed) {
  TinyWorld& world = tiny_world();
  NshdConfig config;
  config.dim = 500;
  config.epochs = 3;
  NshdModel a(world.model, 14, config);
  NshdModel b(world.model, 14, config);
  a.train(world.train_feats, world.train.labels, &world.teacher_logits);
  b.train(world.train_feats, world.train.labels, &world.teacher_logits);
  for (std::int64_t i = 0; i < world.test.size(); ++i) {
    const float* row = world.test_feats.values.data() +
                       i * world.test_feats.values.shape()[1];
    EXPECT_EQ(a.predict(row), b.predict(row));
  }
}

}  // namespace
}  // namespace nshd::core
