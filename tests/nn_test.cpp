// Tests for src/nn: every layer's forward semantics and backward pass
// (checked against finite differences), loss, optimizers, serialization,
// and a tiny end-to-end training run.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

#include "layer_harness.hpp"

namespace nshd::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::Workspace;
using harness::check_gradients;
using harness::random_tensor;
using harness::train_backward;
using harness::train_forward;

// --- Conv2d ---

TEST(Conv2d, OutputShape) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, true, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 16, 16}), Shape({2, 8, 16, 16}));
  Conv2d strided(3, 8, 3, 2, 1, true, rng);
  EXPECT_EQ(strided.output_shape(Shape{1, 3, 16, 16}), Shape({1, 8, 8, 8}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  util::Rng rng(2);
  Conv2d conv(1, 1, 1, 1, 0, /*bias=*/false, rng);
  // Set the single weight to 1.
  conv.params()[0]->value[0] = 1.0f;
  Tensor x = random_tensor(Shape{1, 1, 4, 4}, rng);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, BiasIsAdded) {
  util::Rng rng(3);
  Conv2d conv(1, 2, 1, 1, 0, /*bias=*/true, rng);
  conv.params()[0]->value.zero();  // weight = 0 => output = bias
  conv.params()[1]->value[0] = 1.5f;
  conv.params()[1]->value[1] = -2.0f;
  Tensor x = random_tensor(Shape{1, 1, 3, 3}, rng);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], 1.5f);
    EXPECT_FLOAT_EQ(y[9 + i], -2.0f);
  }
}

TEST(Conv2d, GradientCheck) {
  util::Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, true, rng);
  check_gradients(conv, random_tensor(Shape{2, 2, 5, 5}, rng));
}

TEST(Conv2d, GradientCheckStride2) {
  util::Rng rng(5);
  Conv2d conv(2, 4, 3, 2, 1, false, rng);
  check_gradients(conv, random_tensor(Shape{1, 2, 6, 6}, rng));
}

TEST(Conv2d, MacsCount) {
  util::Rng rng(6);
  Conv2d conv(3, 8, 3, 1, 1, true, rng);
  // 8 out-ch * 16*16 positions * 3 in-ch * 9 taps.
  EXPECT_EQ(conv.macs_per_sample(Shape{3, 16, 16}), 8 * 16 * 16 * 3 * 9);
}

// --- DepthwiseConv2d ---

TEST(DepthwiseConv2d, OutputShape) {
  util::Rng rng(7);
  DepthwiseConv2d dw(4, 3, 2, 1, rng);
  EXPECT_EQ(dw.output_shape(Shape{1, 4, 8, 8}), Shape({1, 4, 4, 4}));
}

TEST(DepthwiseConv2d, ChannelsAreIndependent) {
  util::Rng rng(8);
  DepthwiseConv2d dw(2, 3, 1, 1, rng);
  // Zero the second channel's kernel; its output must be zero regardless of
  // the first channel's input.
  for (int i = 0; i < 9; ++i) dw.params()[0]->value[9 + i] = 0.0f;
  Tensor x = random_tensor(Shape{1, 2, 4, 4}, rng);
  const Tensor y = dw.forward(x);
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y[16 + i], 0.0f);
}

TEST(DepthwiseConv2d, GradientCheck) {
  util::Rng rng(9);
  DepthwiseConv2d dw(3, 3, 1, 1, rng);
  check_gradients(dw, random_tensor(Shape{2, 3, 5, 5}, rng));
}

TEST(DepthwiseConv2d, MacsCount) {
  util::Rng rng(10);
  DepthwiseConv2d dw(16, 3, 1, 1, rng);
  EXPECT_EQ(dw.macs_per_sample(Shape{16, 8, 8}), 16 * 8 * 8 * 9);
}

// --- BatchNorm2d ---

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  util::Rng rng(11);
  BatchNorm2d bn(3);
  Tensor x = random_tensor(Shape{4, 3, 6, 6}, rng, 3.0f);
  for (float& v : x.span()) v += 5.0f;
  Workspace ws;
  const Tensor y = train_forward(bn, x, ws);
  // Per channel: mean ~0, var ~1 (gamma=1, beta=0 initially).
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t i = 0; i < 36; ++i) {
        const float v = y[(n * 3 + c) * 36 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++count;
      }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  util::Rng rng(12);
  BatchNorm2d bn(2);
  // Run several training batches so running stats approach the true ones.
  Workspace ws;
  for (int i = 0; i < 60; ++i) {
    Tensor x = random_tensor(Shape{8, 2, 4, 4}, rng, 2.0f);
    for (float& v : x.span()) v += 1.0f;
    train_forward(bn, x, ws);
  }
  Tensor x = random_tensor(Shape{4, 2, 4, 4}, rng, 2.0f);
  for (float& v : x.span()) v += 1.0f;
  const Tensor y = bn.forward(x);
  EXPECT_NEAR(tensor::mean(y), 0.0, 0.2);
}

TEST(BatchNorm2d, GradientCheck) {
  util::Rng rng(13);
  BatchNorm2d bn(2);
  check_gradients(bn, random_tensor(Shape{3, 2, 4, 4}, rng), 5e-2);
}

// --- Activations ---

TEST(Activation, ReLUValues) {
  EXPECT_FLOAT_EQ(activate(Activation::kReLU, -1.0f), 0.0f);
  EXPECT_FLOAT_EQ(activate(Activation::kReLU, 2.0f), 2.0f);
}

TEST(Activation, ReLU6Saturates) {
  EXPECT_FLOAT_EQ(activate(Activation::kReLU6, 10.0f), 6.0f);
  EXPECT_FLOAT_EQ(activate(Activation::kReLU6, 3.0f), 3.0f);
  EXPECT_FLOAT_EQ(activate(Activation::kReLU6, -1.0f), 0.0f);
}

TEST(Activation, SiLUAtZeroAndLimit) {
  EXPECT_FLOAT_EQ(activate(Activation::kSiLU, 0.0f), 0.0f);
  EXPECT_NEAR(activate(Activation::kSiLU, 10.0f), 10.0f, 1e-3f);
  EXPECT_NEAR(activate(Activation::kSiLU, -10.0f), 0.0f, 1e-3f);
}

TEST(Activation, SigmoidRange) {
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0f), 0.5f, 1e-6f);
  EXPECT_GT(activate(Activation::kSigmoid, 5.0f), 0.99f);
}

class ActivationGrad : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGrad, GradientCheck) {
  util::Rng rng(14);
  ActivationLayer layer(GetParam());
  // Keep values away from the ReLU kinks to avoid finite-difference noise.
  Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng, 2.0f);
  for (float& v : x.span())
    if (std::fabs(v) < 0.05f) v += 0.2f;
  check_gradients(layer, x);
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGrad,
                         ::testing::Values(Activation::kReLU, Activation::kReLU6,
                                           Activation::kSiLU,
                                           Activation::kSigmoid));

// --- Pooling ---

TEST(MaxPool2d, SelectsMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1; x[1] = 5; x[2] = 2; x[3] = 3;
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1; x[1] = 5; x[2] = 2; x[3] = 3;
  Workspace ws;
  train_forward(pool, x, ws);
  Tensor g(Shape{1, 1, 1, 1});
  g[0] = 7.0f;
  const Tensor gx = train_backward(pool, x, g, ws);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 7.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, GradientCheck) {
  util::Rng rng(15);
  MaxPool2d pool(2, 2);
  check_gradients(pool, random_tensor(Shape{2, 3, 6, 6}, rng));
}

TEST(GlobalAvgPool, AveragesPlanes) {
  GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x[i] = 4.0f;      // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // 4,5,6,7
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 5.5f);
}

TEST(GlobalAvgPool, GradientCheck) {
  util::Rng rng(16);
  GlobalAvgPool pool;
  check_gradients(pool, random_tensor(Shape{2, 3, 4, 4}, rng));
}

// --- Linear / Flatten / Dropout ---

TEST(Linear, ComputesAffineMap) {
  util::Rng rng(17);
  Linear fc(2, 2, rng);
  auto params = fc.params();
  params[0]->value[0] = 1; params[0]->value[1] = 2;   // row 0
  params[0]->value[2] = 3; params[0]->value[3] = 4;   // row 1
  params[1]->value[0] = 10; params[1]->value[1] = 20;
  Tensor x(Shape{1, 2});
  x[0] = 1; x[1] = 1;
  const Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 27.0f);
}

TEST(Linear, GradientCheck) {
  util::Rng rng(18);
  Linear fc(6, 4, rng);
  check_gradients(fc, random_tensor(Shape{3, 6}, rng));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  util::Rng rng(19);
  Tensor x = random_tensor(Shape{2, 3, 4, 5}, rng);
  Workspace ws;
  const Tensor y = train_forward(flat, x, ws);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor gx = train_backward(flat, x, y, ws);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, InferenceIsIdentity) {
  util::Rng rng(20);
  Dropout drop(0.5f, rng);
  Tensor x = random_tensor(Shape{2, 10}, rng);
  const Tensor y = drop.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  util::Rng rng(21);
  Dropout drop(0.5f, rng);
  Tensor x = Tensor::full(Shape{1, 2000}, 1.0f);
  Workspace ws;
  const Tensor y = train_forward(drop, x, ws);
  std::int64_t zeros = 0;
  for (float v : y.span()) {
    if (v == 0.0f)
      ++zeros;
    else
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / (1 - 0.5)
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 2000.0, 0.5, 0.06);
}

// --- Blocks ---

TEST(SqueezeExcite, GatesAreBounded) {
  util::Rng rng(22);
  SqueezeExcite se(4, 2, Activation::kSiLU, rng);
  Tensor x = random_tensor(Shape{2, 4, 3, 3}, rng);
  const Tensor y = se.forward(x);
  // |y| <= |x| since the gate is in (0, 1).
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_LE(std::fabs(y[i]), std::fabs(x[i]) + 1e-5f);
}

TEST(SqueezeExcite, GradientCheck) {
  util::Rng rng(23);
  SqueezeExcite se(3, 2, Activation::kSiLU, rng);
  check_gradients(se, random_tensor(Shape{2, 3, 3, 3}, rng), 5e-2);
}

TEST(MBConvBlock, ResidualAppliesWhenShapesMatch) {
  util::Rng rng(24);
  MBConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 4;
  cfg.expand_ratio = 2;
  cfg.stride = 1;
  MBConvBlock block(cfg, rng);
  EXPECT_TRUE(block.has_residual());
  MBConvConfig strided = cfg;
  strided.stride = 2;
  MBConvBlock block2(strided, rng);
  EXPECT_FALSE(block2.has_residual());
  MBConvConfig widened = cfg;
  widened.out_channels = 8;
  MBConvBlock block3(widened, rng);
  EXPECT_FALSE(block3.has_residual());
}

TEST(MBConvBlock, OutputShape) {
  util::Rng rng(25);
  MBConvConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  cfg.expand_ratio = 6;
  cfg.stride = 2;
  MBConvBlock block(cfg, rng);
  EXPECT_EQ(block.output_shape(Shape{1, 4, 8, 8}), Shape({1, 6, 4, 4}));
}

TEST(MBConvBlock, GradientCheckWithResidualAndSe) {
  util::Rng rng(26);
  MBConvConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 3;
  cfg.expand_ratio = 2;
  cfg.stride = 1;
  cfg.use_se = true;
  cfg.activation = Activation::kSiLU;
  MBConvBlock block(cfg, rng);
  check_gradients(block, random_tensor(Shape{2, 3, 4, 4}, rng), 8e-2);
}

// --- Sequential ---

/// Planned prefix forward through layers [0, last].
Tensor forward_prefix(Sequential& net, const Tensor& x, std::size_t last) {
  const Shape& s = x.shape();
  nn::Plan plan(net, Shape{s[1], s[2], s[3]}, last, s[0]);
  return plan.run_batch(x);
}

TEST(Sequential, PlanCutsPrefix) {
  util::Rng rng(27);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, true, rng);
  net.emplace<ActivationLayer>(Activation::kReLU);
  net.emplace<MaxPool2d>(2, 2);
  Tensor x = random_tensor(Shape{1, 1, 4, 4}, rng);
  const Tensor at1 = forward_prefix(net, x, 1);
  EXPECT_EQ(at1.shape(), Shape({1, 2, 4, 4}));
  const Tensor at2 = forward_prefix(net, x, 2);
  EXPECT_EQ(at2.shape(), Shape({1, 2, 2, 2}));
  // The cut is a true prefix: pooling the layer-1 activation gives layer 2.
  const Tensor pooled = net.layer(2).forward(at1);
  for (std::int64_t i = 0; i < at2.numel(); ++i) EXPECT_EQ(at2[i], pooled[i]);
  EXPECT_THROW(forward_prefix(net, x, 3), std::out_of_range);
}

TEST(Sequential, OutputShapeAtMatchesLayerChain) {
  util::Rng rng(28);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 2, 1, false, rng);
  net.emplace<BatchNorm2d>(4);
  net.emplace<ActivationLayer>(Activation::kReLU6);
  Tensor h = random_tensor(Shape{2, 3, 8, 8}, rng);
  const Shape in = h.shape();
  for (std::size_t i = 0; i < net.size(); ++i) {
    h = net.layer(i).forward(h);
    EXPECT_EQ(net.output_shape_at(in, i), h.shape());
  }
}

TEST(Sequential, ParamsAggregatesChildren) {
  util::Rng rng(29);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, true, rng);
  net.emplace<Linear>(4, 3, rng);
  EXPECT_EQ(net.params().size(), 4u);  // conv w+b, linear w+b
}

// --- Loss ---

/// softmax_cross_entropy_into with a freshly allocated gradient.
struct LossOut {
  LossStats stats;
  Tensor grad;
};

LossOut loss_of(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  LossOut r{{}, Tensor(logits.shape())};
  r.stats = softmax_cross_entropy_into(logits.view(), labels, r.grad.view());
  return r;
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape{2, 3});
  logits.at(0, 0) = 100.0f;
  logits.at(1, 2) = 100.0f;
  const LossOut r = loss_of(logits, {0, 2});
  EXPECT_LT(r.stats.loss, 1e-3);
  EXPECT_EQ(r.stats.correct, 2);
}

TEST(Loss, UniformLogitsGiveLogK) {
  Tensor logits(Shape{1, 10});
  const LossOut r = loss_of(logits, {4});
  EXPECT_NEAR(r.stats.loss, std::log(10.0), 1e-5);
}

TEST(Loss, GradientIsSoftmaxMinusOneHotOverN) {
  Tensor logits(Shape{2, 2});
  logits.at(0, 0) = 1.0f;
  const LossOut r = loss_of(logits, {0, 1});
  // Row sums of grad must be ~0 (softmax sums to 1, one-hot sums to 1).
  for (std::int64_t n = 0; n < 2; ++n) {
    EXPECT_NEAR(r.grad.at(n, 0) + r.grad.at(n, 1), 0.0f, 1e-6f);
  }
  // True-class gradient is negative.
  EXPECT_LT(r.grad.at(0, 0), 0.0f);
  EXPECT_LT(r.grad.at(1, 1), 0.0f);
}

TEST(Loss, GradientCheckAgainstFiniteDifference) {
  util::Rng rng(30);
  Tensor logits = random_tensor(Shape{3, 4}, rng);
  const std::vector<std::int64_t> labels{1, 3, 0};
  const LossOut r = loss_of(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    const double numeric =
        (loss_of(up, labels).stats.loss - loss_of(down, labels).stats.loss) /
        (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-3);
  }
}

// --- Optimizers ---

TEST(Sgd, DescendsQuadratic) {
  // Minimize f(w) = 0.5 * w^2 by feeding grad = w.
  Param w(Shape{1});
  w.value[0] = 10.0f;
  Sgd opt({&w}, 0.1f, 0.0f, 0.0f);
  for (int i = 0; i < 100; ++i) {
    w.grad[0] = w.value[0];
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Param a(Shape{1}), b(Shape{1});
  a.value[0] = b.value[0] = 10.0f;
  Sgd plain({&a}, 0.01f, 0.0f, 0.0f);
  Sgd momentum({&b}, 0.01f, 0.9f, 0.0f);
  for (int i = 0; i < 20; ++i) {
    a.grad[0] = a.value[0];
    plain.step();
    b.grad[0] = b.value[0];
    momentum.step();
  }
  EXPECT_LT(std::fabs(b.value[0]), std::fabs(a.value[0]));
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param w(Shape{1});
  w.value[0] = 1.0f;
  Sgd opt({&w}, 0.1f, 0.0f, 0.5f);
  opt.step();  // grad 0, decay only
  EXPECT_LT(w.value[0], 1.0f);
}

TEST(Adam, DescendsQuadratic) {
  Param w(Shape{1});
  w.value[0] = 5.0f;
  Adam opt({&w}, 0.3f);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = w.value[0];
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-2f);
}

TEST(Optimizer, StepZeroesGradients) {
  Param w(Shape{2});
  Sgd opt({&w}, 0.1f);
  w.grad[0] = 1.0f;
  w.grad[1] = -2.0f;
  opt.step();
  EXPECT_EQ(w.grad[0], 0.0f);
  EXPECT_EQ(w.grad[1], 0.0f);
}

// --- Serialization ---

TEST(Serialize, RoundTripRestoresForward) {
  util::Rng rng(31);
  Sequential a;
  a.emplace<Conv2d>(1, 2, 3, 1, 1, false, rng);
  a.emplace<BatchNorm2d>(2);
  a.emplace<ActivationLayer>(Activation::kReLU);

  // Give BN nontrivial running stats.
  Workspace ws;
  for (int i = 0; i < 5; ++i)
    train_forward(a, random_tensor(Shape{4, 1, 4, 4}, rng), ws);

  const std::vector<float> blob = save_state(a);

  util::Rng rng2(99);
  Sequential b;
  b.emplace<Conv2d>(1, 2, 3, 1, 1, false, rng2);
  b.emplace<BatchNorm2d>(2);
  b.emplace<ActivationLayer>(Activation::kReLU);
  ASSERT_TRUE(load_state(b, blob));

  Tensor x = random_tensor(Shape{1, 1, 4, 4}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Serialize, RejectsWrongLayout) {
  util::Rng rng(32);
  Sequential a;
  a.emplace<Linear>(4, 3, rng);
  Sequential b;
  b.emplace<Linear>(4, 5, rng);
  const std::vector<float> blob = save_state(a);
  EXPECT_FALSE(load_state(b, blob));
}

TEST(Serialize, ParameterCount) {
  util::Rng rng(33);
  Sequential net;
  net.emplace<Linear>(10, 5, rng);  // 55
  net.emplace<Linear>(5, 2, rng);   // 12
  EXPECT_EQ(parameter_count(net), 67);
}

// --- End-to-end training smoke ---

TEST(Trainer, LearnsLinearlySeparableTask) {
  // Two Gaussian blobs in 8-D; a tiny MLP must fit them.
  util::Rng rng(34);
  const std::int64_t n = 120;
  data::Dataset ds;
  ds.num_classes = 2;
  ds.images = Tensor(Shape{n, 1, 1, 8});
  ds.labels.resize(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t label = i % 2;
    ds.labels[static_cast<std::size_t>(i)] = label;
    for (std::int64_t j = 0; j < 8; ++j) {
      ds.images[i * 8 + j] = rng.normal(label == 0 ? -1.0f : 1.0f, 0.5f);
    }
  }
  Sequential net;
  net.emplace<Flatten>();
  net.emplace<Linear>(8, 16, rng);
  net.emplace<ActivationLayer>(Activation::kReLU);
  net.emplace<Linear>(16, 2, rng);

  TrainConfig config;
  config.epochs = 30;
  config.batch_size = 16;
  config.learning_rate = 0.05f;
  const TrainReport report = train_classifier(net, ds, config);
  EXPECT_GT(report.final_train_accuracy, 0.95);
  EXPECT_GT(evaluate_classifier(net, ds), 0.95);
}

TEST(Trainer, PredictLogitsShapeAndConsistency) {
  util::Rng rng(35);
  data::Dataset ds;
  ds.num_classes = 3;
  ds.images = random_tensor(Shape{10, 1, 1, 4}, rng);
  ds.labels.assign(10, 0);
  Sequential net;
  net.emplace<Flatten>();
  net.emplace<Linear>(4, 3, rng);
  const Tensor logits = predict_logits(net, ds, /*batch_size=*/4);
  EXPECT_EQ(logits.shape(), Shape({10, 3}));
  // Same input row => same logits independent of batching.
  const Tensor one = net.forward(ds.sample(7).reshaped(Shape{1, 4}));
  for (std::int64_t c = 0; c < 3; ++c)
    EXPECT_NEAR(logits.at(7, c), one[c], 1e-5f);
}

}  // namespace
}  // namespace nshd::nn
