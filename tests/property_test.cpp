// Property-based parameterized sweeps across module configuration grids:
// every layer geometry's forward against the independent reference in
// reference_net.hpp, backward adjointness of the linear layers, bit-packing
// invariants at word boundaries, encoder adjointness across dimensions, and
// HD-learning convergence across class counts.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "hd/classifier.hpp"
#include "hd/hypervector.hpp"
#include "hd/projection.hpp"
#include "hd/vanilla.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "util/rng.hpp"

#include "layer_harness.hpp"
#include "reference_net.hpp"

namespace nshd {
namespace {

using nn::Shape;
using nn::harness::random_tensor;
using nn::harness::train_backward;
using nn::harness::train_forward;
using tensor::Tensor;
using tensor::Workspace;

// Relative L2 distance allowed between one float layer and the double
// reference: a few float roundings per output, far below any indexing bug.
constexpr double kLayerTolerance = 1e-5;

double dot(const Tensor& a, const Tensor& b) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

/// For a layer affine in its input, y(x) = A x + y(0): backward_into must
/// return A^T g, so <y(x) - y(0), g> == <x, A^T g>.
void expect_backward_is_adjoint(nn::Layer& layer, const Tensor& x,
                                util::Rng& rng) {
  const Tensor y = layer.forward(x);
  const Tensor y0 = layer.forward(Tensor(x.shape()));
  const Tensor g = random_tensor(y.shape(), rng);
  Workspace ws;
  train_forward(layer, x, ws);
  const Tensor gx = train_backward(layer, x, g, ws);
  const double lhs = dot(y, g) - dot(y0, g);
  const double rhs = dot(x, gx);
  EXPECT_NEAR(lhs, rhs, 1e-4 * std::max(1.0, std::fabs(lhs))) << layer.name();
}

// --- Conv2d geometry sweep: forward matches the reference and its declared
// output_shape, and backward is the adjoint, for every geometry. ---

using ConvCase = std::tuple<int, int, int, int, int, int>;  // in_c,out_c,k,s,pad,hw

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, ForwardMatchesReferenceAndBackwardIsAdjoint) {
  const auto [in_c, out_c, k, s, pad, hw] = GetParam();
  util::Rng rng(1);
  nn::Conv2d conv(in_c, out_c, k, s, pad, true, rng);
  Tensor x = random_tensor(Shape{2, in_c, hw, hw}, rng);
  const Tensor y = conv.forward(x);
  const Tensor want = reference::forward(conv, x);
  ASSERT_EQ(want.shape(), conv.output_shape(x.shape()));
  EXPECT_LT(reference::rel_l2(y, want), kLayerTolerance);
  expect_backward_is_adjoint(conv, x, rng);
  EXPECT_GT(conv.macs_per_sample(Shape{in_c, hw, hw}), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4}, ConvCase{3, 8, 3, 1, 1, 8},
                      ConvCase{4, 2, 3, 2, 1, 9}, ConvCase{2, 5, 5, 2, 2, 12},
                      ConvCase{8, 8, 1, 1, 0, 7}, ConvCase{3, 16, 3, 2, 1, 32}));

// --- Depthwise geometry sweep: the k3/k5 stride-1 SIMD rows, the generic
// interior loop and the guarded border, across widths that leave vector
// tails. ---

using DwCase = std::tuple<int, int, int, int>;  // channels, k, s, hw

class DepthwiseGeometry : public ::testing::TestWithParam<DwCase> {};

TEST_P(DepthwiseGeometry, ForwardMatchesReferenceAndBackwardIsAdjoint) {
  const auto [channels, k, s, hw] = GetParam();
  util::Rng rng(8);
  nn::DepthwiseConv2d dw(channels, k, s, k / 2, rng);
  Tensor x = random_tensor(Shape{2, channels, hw, hw + 3}, rng);
  const Tensor want = reference::forward(dw, x);
  ASSERT_EQ(want.shape(), dw.output_shape(x.shape()));
  EXPECT_LT(reference::rel_l2(dw.forward(x), want), kLayerTolerance);
  expect_backward_is_adjoint(dw, x, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DepthwiseGeometry,
    ::testing::Values(DwCase{3, 3, 1, 5}, DwCase{4, 3, 1, 17},
                      DwCase{2, 5, 1, 6}, DwCase{3, 5, 1, 21},
                      DwCase{4, 3, 2, 9}, DwCase{3, 5, 2, 14},
                      DwCase{2, 7, 1, 10}));

// --- MBConv configuration sweep ---

using MBCase = std::tuple<int, int, int, int, int, bool>;  // in,out,expand,k,s,se

class MBConvSweep : public ::testing::TestWithParam<MBCase> {};

TEST_P(MBConvSweep, ForwardMatchesReferenceAndBackwardRuns) {
  const auto [in_c, out_c, expand, k, s, se] = GetParam();
  util::Rng rng(2);
  nn::MBConvConfig config;
  config.in_channels = in_c;
  config.out_channels = out_c;
  config.expand_ratio = expand;
  config.kernel = k;
  config.stride = s;
  config.use_se = se;
  nn::MBConvBlock block(config, rng);
  Tensor x = random_tensor(Shape{2, in_c, 8, 8}, rng);
  EXPECT_EQ(block.has_residual(), s == 1 && in_c == out_c);
  const Tensor want = reference::forward(block, x);
  ASSERT_EQ(want.shape(), block.output_shape(x.shape()));
  EXPECT_LT(reference::rel_l2(block.forward(x), want), kLayerTolerance);

  Workspace ws;
  const Tensor y = train_forward(block, x, ws);
  const Tensor gx = train_backward(block, x, y, ws);
  for (const float v : gx.span()) ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Configs, MBConvSweep,
                         ::testing::Values(MBCase{4, 4, 1, 3, 1, false},
                                           MBCase{4, 8, 6, 3, 2, false},
                                           MBCase{6, 6, 6, 3, 1, true},
                                           MBCase{4, 10, 6, 5, 2, true},
                                           MBCase{8, 8, 2, 5, 1, true}));

// --- Hypervector word-boundary sweep: packing must be exact at and around
// 64-bit word boundaries. ---

class WordBoundary : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WordBoundary, PackingInvariants) {
  const std::int64_t dim = GetParam();
  util::Rng rng(3);
  const hd::Hypervector a = hd::Hypervector::random(dim, rng);
  const hd::Hypervector b = hd::Hypervector::random(dim, rng);
  // Self-similarity is exact.
  EXPECT_EQ(a.dot(a), dim);
  EXPECT_EQ(a.hamming(a), 0);
  // Symmetry.
  EXPECT_EQ(a.hamming(b), b.hamming(a));
  // Hamming within [0, dim]; padding bits must not leak into counts.
  EXPECT_GE(a.hamming(b), 0);
  EXPECT_LE(a.hamming(b), dim);
  // Round-trip through the float view.
  EXPECT_EQ(hd::Hypervector::from_sign(a.to_tensor()), a);
  // Binding self-inverse at every size.
  EXPECT_EQ(a.bind(b).bind(b), a);
}

INSTANTIATE_TEST_SUITE_P(Dims, WordBoundary,
                         ::testing::Values<std::int64_t>(1, 2, 63, 64, 65, 127,
                                                         128, 129, 1000, 3000));

// --- RandomProjection adjoint property across (dim, features) grid ---

using ProjCase = std::tuple<int, int>;

class ProjectionSweep : public ::testing::TestWithParam<ProjCase> {};

TEST_P(ProjectionSweep, DecodeIsAdjoint) {
  const auto [dim, features] = GetParam();
  util::Rng rng(4);
  const hd::RandomProjection proj(dim, features, rng);
  Tensor v(Shape{features}), g(Shape{dim});
  for (float& x : v.span()) x = rng.normal();
  for (float& x : g.span()) x = rng.normal();
  const Tensor z = proj.project(v);
  const Tensor back = proj.decode(g);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < dim; ++i) lhs += static_cast<double>(z[i]) * g[i];
  for (std::int64_t i = 0; i < features; ++i) rhs += static_cast<double>(v[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

TEST_P(ProjectionSweep, EncodingIsDeterministic) {
  const auto [dim, features] = GetParam();
  util::Rng rng(5);
  const hd::RandomProjection proj(dim, features, rng);
  Tensor v(Shape{features});
  for (float& x : v.span()) x = rng.normal();
  EXPECT_EQ(proj.encode(v), proj.encode(v));
}

INSTANTIATE_TEST_SUITE_P(Grid, ProjectionSweep,
                         ::testing::Values(ProjCase{64, 10}, ProjCase{100, 64},
                                           ProjCase{1000, 100}, ProjCase{128, 128},
                                           ProjCase{3000, 63}, ProjCase{513, 65}));

// --- Pooling geometry sweep ---

using PoolCase = std::tuple<int, int, int>;  // k, s, hw

class PoolSweep : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolSweep, MaxPoolNeverInventsValues) {
  const auto [k, s, hw] = GetParam();
  util::Rng rng(6);
  nn::MaxPool2d pool(k, s);
  Tensor x = random_tensor(Shape{1, 3, hw, hw}, rng);
  const Tensor y = pool.forward(x);
  const Tensor want = reference::forward(pool, x);
  ASSERT_EQ(want.shape(), y.shape());
  EXPECT_EQ(reference::rel_l2(y, want), 0.0);  // max selects, never rounds
  const float x_max = *std::max_element(x.span().begin(), x.span().end());
  for (float v : y.span()) EXPECT_LE(v, x_max);
}

INSTANTIATE_TEST_SUITE_P(Geometries, PoolSweep,
                         ::testing::Values(PoolCase{2, 2, 8}, PoolCase{3, 2, 9},
                                           PoolCase{2, 1, 5}, PoolCase{3, 3, 12}));

// --- BatchNorm across channel counts: training output is always
// zero-mean/unit-variance per channel, and the eval path (running stats the
// training pass just updated) matches the reference. ---

class BatchNormSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BatchNormSweep, NormalizesEveryChannelCount) {
  const std::int64_t channels = GetParam();
  util::Rng rng(7);
  nn::BatchNorm2d bn(channels);
  Tensor x = random_tensor(Shape{4, channels, 5, 5}, rng);
  for (float& v : x.span()) v = v * 3.0f + 2.0f;
  Workspace ws;
  const Tensor y = train_forward(bn, x, ws);
  for (std::int64_t c = 0; c < channels; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 25; ++i) {
        const float v = y[(n * channels + c) * 25 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 100.0, 0.0, 1e-3);
    EXPECT_NEAR(sq / 100.0, 1.0, 2e-2);
  }
  EXPECT_LT(reference::rel_l2(bn.forward(x), reference::forward(bn, x)),
            kLayerTolerance);
}

INSTANTIATE_TEST_SUITE_P(Channels, BatchNormSweep,
                         ::testing::Values<std::int64_t>(1, 2, 7, 16));

// --- Squeeze-excite, global pooling and the FC head against the reference
// for every mid activation. ---

class HeadSweep : public ::testing::TestWithParam<nn::Activation> {};

TEST_P(HeadSweep, SqueezeExciteMatchesReference) {
  util::Rng rng(10);
  nn::SqueezeExcite se(6, 3, GetParam(), rng);
  Tensor x = random_tensor(Shape{3, 6, 5, 4}, rng);
  const std::vector<nn::Param*> p = se.params();
  const Tensor want = reference::squeeze_excite(
      x, p[0]->value, p[1]->value, p[2]->value, p[3]->value, GetParam());
  EXPECT_LT(reference::rel_l2(se.forward(x), want), kLayerTolerance);
}

TEST_P(HeadSweep, PoolFlattenLinearMatchReference) {
  util::Rng rng(11);
  nn::Sequential head;
  head.emplace<nn::GlobalAvgPool>();
  head.emplace<nn::Flatten>();
  head.emplace<nn::Linear>(9, 5, rng);
  head.emplace<nn::ActivationLayer>(GetParam());
  head.emplace<nn::Linear>(5, 3, rng);
  Tensor x = random_tensor(Shape{4, 9, 3, 5}, rng);
  EXPECT_LT(reference::rel_l2(head.forward(x), reference::forward(head, x)),
            kLayerTolerance);
}

INSTANTIATE_TEST_SUITE_P(Activations, HeadSweep,
                         ::testing::Values(nn::Activation::kReLU,
                                           nn::Activation::kReLU6,
                                           nn::Activation::kSiLU,
                                           nn::Activation::kSigmoid));

// --- IdLevel encoder: similarity decays monotonically (on average) with
// level distance for every level count. ---

class IdLevelSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IdLevelSweep, LevelChainDecaysWithDistance) {
  const std::int64_t levels = GetParam();
  hd::IdLevelConfig config;
  config.dim = 4096;
  config.levels = levels;
  const hd::IdLevelEncoder enc(4, config);
  const double near =
      static_cast<double>(enc.level_hv(0).dot(enc.level_hv(levels / 4)));
  const double far =
      static_cast<double>(enc.level_hv(0).dot(enc.level_hv(levels - 1)));
  EXPECT_GT(near, far);
}

INSTANTIATE_TEST_SUITE_P(Levels, IdLevelSweep,
                         ::testing::Values<std::int64_t>(8, 16, 32, 64));

// --- MASS learning converges across class counts ---

class MassClasses : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MassClasses, SeparableProblemIsLearned) {
  const std::int64_t classes = GetParam();
  const std::int64_t dim = 2048;
  util::Rng rng(classes * 97);
  std::vector<hd::Hypervector> prototypes;
  for (std::int64_t c = 0; c < classes; ++c)
    prototypes.push_back(hd::Hypervector::random(dim, rng));
  std::vector<hd::Hypervector> train, test;
  std::vector<std::int64_t> train_labels, test_labels;
  auto noisy = [&](std::int64_t c) {
    hd::Hypervector h = prototypes[static_cast<std::size_t>(c)];
    for (int f = 0; f < dim / 3; ++f)
      h.flip(static_cast<std::int64_t>(rng.next_below(dim)));
    return h;
  };
  for (std::int64_t c = 0; c < classes; ++c) {
    for (int i = 0; i < 12; ++i) {
      train.push_back(noisy(c));
      train_labels.push_back(c);
      test.push_back(noisy(c));
      test_labels.push_back(c);
    }
  }
  hd::HdClassifier clf(classes, dim);
  hd::MassConfig config;
  config.epochs = 10;
  clf.train(train, train_labels, config);
  EXPECT_GT(clf.evaluate(test, test_labels), 0.85);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, MassClasses,
                         ::testing::Values<std::int64_t>(2, 5, 10, 25));

// --- Activation functions: analytic gradient matches finite differences on
// a value sweep (the kinks excluded). ---

class ActivationSweep
    : public ::testing::TestWithParam<std::tuple<nn::Activation, float>> {};

TEST_P(ActivationSweep, GradMatchesFiniteDifference) {
  const auto [act, x] = GetParam();
  const float eps = 1e-3f;
  const float numeric =
      (nn::activate(act, x + eps) - nn::activate(act, x - eps)) / (2.0f * eps);
  EXPECT_NEAR(nn::activate_grad(act, x), numeric, 2e-3f);
}

TEST_P(ActivationSweep, LayerMatchesReference) {
  const auto [act, offset] = GetParam();
  util::Rng rng(9);
  nn::ActivationLayer layer(act);
  Tensor x = random_tensor(Shape{2, 3, 5, 7}, rng, 4.0f);
  for (float& v : x.span()) v += offset;
  EXPECT_LT(reference::rel_l2(layer.forward(x), reference::forward(layer, x)),
            kLayerTolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Values, ActivationSweep,
    ::testing::Combine(::testing::Values(nn::Activation::kReLU,
                                         nn::Activation::kReLU6,
                                         nn::Activation::kSiLU,
                                         nn::Activation::kSigmoid),
                       ::testing::Values(-3.0f, -1.0f, -0.3f, 0.4f, 1.7f, 3.0f,
                                         5.5f, 7.0f)));

}  // namespace
}  // namespace nshd
