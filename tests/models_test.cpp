// Tests for src/models: zoo construction, paper layer indexing, cut-point
// shapes, and the pretraining cache.
#include <gtest/gtest.h>

#include <filesystem>

#include "data/synth_cifar.hpp"
#include "models/pretrained.hpp"
#include "models/zoo.hpp"
#include "nn/serialize.hpp"

namespace nshd::models {
namespace {

TEST(Zoo, RegistryNamesResolve) {
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = make_model(name, 10, 1);
    EXPECT_EQ(m.name, name);
    EXPECT_GT(m.feature_count, 0u);
    EXPECT_FALSE(m.paper_cut_layers.empty());
  }
}

TEST(Zoo, UnknownNameThrows) {
  EXPECT_THROW(make_model("resnet50", 10, 1), std::invalid_argument);
}

TEST(Zoo, DisplayNamesMatchPaper) {
  EXPECT_EQ(display_name("vgg16s"), "VGG16");
  EXPECT_EQ(display_name("mobilenetv2s"), "Mobilenetv2");
  EXPECT_EQ(display_name("efficientnet_b0s"), "Efficientnetb0");
  EXPECT_EQ(display_name("efficientnet_b7s"), "Efficientnetb7");
}

TEST(Zoo, Vgg16HasTorchvisionIndexing) {
  ZooModel m = make_vgg16s(10, 1);
  // torchvision VGG16 `features` has 31 entries; pools at 4,9,16,23,30.
  EXPECT_EQ(m.feature_count, 31u);
  for (std::size_t pool_index : {4u, 9u, 16u, 23u, 30u}) {
    EXPECT_EQ(m.net.layer(pool_index).kind(), nn::LayerKind::kMaxPool)
        << "index " << pool_index;
  }
  // Convs at 0,2,5,7,10,...
  EXPECT_EQ(m.net.layer(0).kind(), nn::LayerKind::kConv);
  EXPECT_EQ(m.net.layer(28).kind(), nn::LayerKind::kConv);
  EXPECT_EQ(m.net.layer(27).kind(), nn::LayerKind::kActivation);
  EXPECT_EQ(m.paper_cut_layers, (std::vector<std::size_t>{27, 29}));
}

TEST(Zoo, MobilenetV2HasOperatorIndexing) {
  ZooModel m = make_mobilenetv2s(10, 1);
  EXPECT_EQ(m.feature_count, 19u);  // stem + 17 blocks + last conv
  EXPECT_EQ(m.paper_cut_layers, (std::vector<std::size_t>{14, 17}));
}

TEST(Zoo, EfficientNetHasBlockIndexing) {
  ZooModel b0 = make_efficientnet_b0s(10, 1);
  EXPECT_EQ(b0.feature_count, 9u);  // stem + 7 stages + head conv
  EXPECT_EQ(b0.paper_cut_layers, (std::vector<std::size_t>{5, 6, 7, 8}));
  ZooModel b7 = make_efficientnet_b7s(10, 1);
  EXPECT_EQ(b7.feature_count, 9u);
  EXPECT_EQ(b7.paper_cut_layers, (std::vector<std::size_t>{6, 7, 8}));
}

TEST(Zoo, B7IsLargerThanB0) {
  ZooModel b0 = make_efficientnet_b0s(10, 1);
  ZooModel b7 = make_efficientnet_b7s(10, 1);
  EXPECT_GT(nn::parameter_count(b7.net), 2 * nn::parameter_count(b0.net));
}

TEST(Zoo, ForwardShapesAreConsistent) {
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = make_model(name, 10, 1);
    tensor::Tensor x(tensor::Shape{2, 3, 32, 32});
    const tensor::Tensor logits = m.net.forward(x);
    EXPECT_EQ(logits.shape(), tensor::Shape({2, 10})) << name;
  }
}

TEST(Zoo, FeatureShapeAtMatchesForward) {
  ZooModel m = make_efficientnet_b0s(10, 1);
  tensor::Tensor x(tensor::Shape{1, 3, 32, 32});
  for (std::size_t cut : m.paper_cut_layers) {
    // Chain the cut prefix layer by layer through the eval convenience.
    tensor::Tensor feat = x;
    for (std::size_t i = 0; i <= cut; ++i) feat = m.net.layer(i).forward(feat);
    const tensor::Shape expect = m.feature_shape_at(cut);
    EXPECT_EQ(feat.numel(), expect.numel()) << "cut " << cut;
    EXPECT_EQ(m.feature_dim_at(cut), expect.numel());
  }
}

TEST(Zoo, SpatialExtentNeverGrowsWithDepth) {
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = make_model(name, 10, 1);
    std::int64_t last_h = 1 << 20;
    for (std::size_t i = 0; i < m.feature_count; ++i) {
      const tensor::Shape s = m.feature_shape_at(i);
      EXPECT_LE(s[1], last_h) << name << " layer " << i;
      last_h = s[1];
    }
    // Every backbone ends spatially collapsed relative to the 32x32 input.
    EXPECT_LE(last_h, 2) << name;
  }
}

TEST(Zoo, CutLayersAreWithinFeatureStack) {
  for (const std::string& name : zoo_model_names()) {
    ZooModel m = make_model(name, 10, 1);
    for (std::size_t cut : m.paper_cut_layers) EXPECT_LT(cut, m.feature_count);
    for (std::size_t cut : m.energy_cut_layers) EXPECT_LT(cut, m.feature_count);
  }
}

TEST(Zoo, SeedChangesWeights) {
  ZooModel a = make_mobilenetv2s(10, 1);
  ZooModel b = make_mobilenetv2s(10, 2);
  const auto pa = a.net.params();
  const auto pb = b.net.params();
  ASSERT_EQ(pa.size(), pb.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.size() && !any_diff; ++i) {
    for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      if (pa[i]->value[j] != pb[i]->value[j]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Pretrained, CacheRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nshd_pretrain_test_" + std::to_string(::getpid()));
  {
    util::DiskCache cache(dir.string());
    data::SynthCifarConfig data_config;
    data_config.num_classes = 3;
    data_config.samples_per_class = 6;
    data_config.image_size = 16;
    const data::Dataset tiny = data::make_synth_cifar(data_config);

    PretrainOptions options;
    options.train.epochs = 1;
    options.train.batch_size = 6;
    options.dataset_key = data_config.cache_key("train");

    ZooModel first = pretrained_model("mobilenetv2s", tiny, options, cache);
    const std::string key =
        pretrain_cache_key("mobilenetv2s", options, tiny.num_classes);
    // Weights are stored as a checkpoint entry, not a legacy blob.
    EXPECT_TRUE(cache.get_checkpoint(key).ok());

    // Second call must load, not retrain: weights identical.
    ZooModel second = pretrained_model("mobilenetv2s", tiny, options, cache);
    const auto pa = first.net.params();
    const auto pb = second.net.params();
    for (std::size_t i = 0; i < pa.size(); ++i) {
      for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
        ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Pretrained, CacheKeyReflectsConfig) {
  PretrainOptions a;
  a.dataset_key = "ds1";
  PretrainOptions b = a;
  b.train.epochs = 99;
  EXPECT_NE(pretrain_cache_key("vgg16s", a, 10), pretrain_cache_key("vgg16s", b, 10));
  EXPECT_NE(pretrain_cache_key("vgg16s", a, 10), pretrain_cache_key("vgg16s", a, 100));
  EXPECT_NE(pretrain_cache_key("vgg16s", a, 10), pretrain_cache_key("mobilenetv2s", a, 10));
}

}  // namespace
}  // namespace nshd::models
