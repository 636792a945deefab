// Tests for the zero-alloc training path: finite-difference checks of every
// layer's backward_into, thread-count and prefetch-depth invariance of the
// accumulated gradients, kill-resume through TrainingPlan, the train.* fault
// sites, and the backward-after-forward training-state contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/pipeline.hpp"
#include "data/synth_cifar.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/train_plan.hpp"
#include "nn/trainer.hpp"
#include "tensor/workspace.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "layer_harness.hpp"

namespace nshd::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;
using tensor::Workspace;
using harness::check_gradients;
using harness::random_tensor;
using harness::train_forward;

bool tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

::testing::AssertionResult models_bitwise_equal(Layer& a, Layer& b) {
  std::vector<Tensor*> sa, sb;
  a.append_state(sa);
  b.append_state(sb);
  if (sa.size() != sb.size())
    return ::testing::AssertionFailure()
           << "state bank sizes differ: " << sa.size() << " vs " << sb.size();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i]->numel() != sb[i]->numel())
      return ::testing::AssertionFailure() << "tensor " << i << " numel differs";
    if (std::memcmp(sa[i]->data(), sb[i]->data(),
                    static_cast<std::size_t>(sa[i]->numel()) * sizeof(float)) != 0) {
      for (std::int64_t j = 0; j < sa[i]->numel(); ++j)
        if ((*sa[i])[j] != (*sb[i])[j] ||
            std::signbit((*sa[i])[j]) != std::signbit((*sb[i])[j]))
          return ::testing::AssertionFailure()
                 << "state tensor " << i << " differs at " << j << ": "
                 << (*sa[i])[j] << " vs " << (*sb[i])[j];
      return ::testing::AssertionFailure() << "state tensor " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// --- Finite-difference checks, every layer type ---

TEST(PlannedGradient, Conv2dOddShapes) {
  util::Rng rng(11);
  Conv2d conv(3, 5, 3, 2, 1, /*bias=*/true, rng);
  check_gradients(conv, random_tensor(Shape{7, 3, 7, 5}, rng));
}

TEST(PlannedGradient, Conv2dBatchOne) {
  util::Rng rng(12);
  Conv2d conv(2, 4, 3, 1, 1, /*bias=*/true, rng);
  check_gradients(conv, random_tensor(Shape{1, 2, 5, 5}, rng));
}

TEST(PlannedGradient, PointwiseConv2d) {
  // The 1x1/s1/p0 backward takes the im2col-free fast path.
  util::Rng rng(13);
  Conv2d conv(4, 6, 1, 1, 0, /*bias=*/true, rng);
  check_gradients(conv, random_tensor(Shape{7, 4, 5, 3}, rng));
}

TEST(PlannedGradient, DepthwiseConv2d) {
  util::Rng rng(14);
  DepthwiseConv2d conv(4, 3, 1, 1, rng);
  check_gradients(conv, random_tensor(Shape{7, 4, 6, 5}, rng));
}

TEST(PlannedGradient, BatchNorm2d) {
  util::Rng rng(15);
  BatchNorm2d bn(5);
  check_gradients(bn, random_tensor(Shape{7, 5, 4, 3}, rng), 5e-2);
}

TEST(PlannedGradient, ActivationSiLU) {
  util::Rng rng(16);
  ActivationLayer act(Activation::kSiLU);
  check_gradients(act, random_tensor(Shape{7, 6, 5, 4}, rng));
}

TEST(PlannedGradient, MaxPool2d) {
  util::Rng rng(17);
  MaxPool2d pool(2, 2);
  check_gradients(pool, random_tensor(Shape{7, 3, 6, 4}, rng));
}

TEST(PlannedGradient, GlobalAvgPool) {
  util::Rng rng(18);
  GlobalAvgPool pool;
  check_gradients(pool, random_tensor(Shape{7, 5, 4, 6}, rng));
}

TEST(PlannedGradient, Linear) {
  util::Rng rng(19);
  Linear linear(10, 7, rng);
  check_gradients(linear, random_tensor(Shape{7, 10}, rng));
}

TEST(PlannedGradient, Flatten) {
  util::Rng rng(20);
  Flatten flatten;
  check_gradients(flatten, random_tensor(Shape{7, 3, 4, 2}, rng));
}

TEST(PlannedGradient, Dropout) {
  // The state snapshot/restore in check_gradients pins the step
  // counter, so every finite-difference evaluation sees the same mask.
  util::Rng rng(21);
  Dropout dropout(0.3f, rng);
  check_gradients(dropout, random_tensor(Shape{7, 5, 3, 2}, rng));
}

TEST(PlannedGradient, SqueezeExcite) {
  util::Rng rng(22);
  SqueezeExcite se(6, 3, Activation::kSiLU, rng);
  check_gradients(se, random_tensor(Shape{5, 6, 4, 3}, rng, 0.5f), 5e-2);
}

TEST(PlannedGradient, MBConvResidual) {
  util::Rng rng(23);
  MBConvConfig cfg;
  cfg.in_channels = 6;
  cfg.out_channels = 6;  // stride 1 + equal channels => residual
  cfg.expand_ratio = 2;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.use_se = true;
  cfg.se_reduction = 2;
  cfg.activation = Activation::kSiLU;
  MBConvBlock block(cfg, rng);
  check_gradients(block, random_tensor(Shape{3, 6, 5, 5}, rng, 0.5f), 8e-2);
}

TEST(PlannedGradient, MBConvNonResidual) {
  util::Rng rng(24);
  MBConvConfig cfg;
  cfg.in_channels = 6;
  cfg.out_channels = 8;  // channel change => no residual
  cfg.expand_ratio = 2;
  cfg.kernel = 3;
  cfg.stride = 2;
  cfg.use_se = false;
  cfg.activation = Activation::kReLU6;
  MBConvBlock block(cfg, rng);
  // Deep chains need a tighter probe step: at eps=1e-2 the central difference
  // picks up curvature (and ReLU6 kinks) from every downstream layer.
  check_gradients(block, random_tensor(Shape{3, 6, 6, 6}, rng, 0.5f),
                          8e-2, 5e-4f);
}

TEST(PlannedGradient, SequentialStackAcrossBatchSizes) {
  for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{7}, std::int64_t{32}}) {
    util::Rng rng(25);
    Sequential net;
    net.emplace<Conv2d>(3, 6, 3, 1, 1, true, rng);
    net.emplace<BatchNorm2d>(6);
    net.emplace<ActivationLayer>(Activation::kSiLU);
    net.emplace<MaxPool2d>(2, 2);
    net.emplace<Flatten>();
    net.emplace<Linear>(6 * 3 * 2, 4, rng);
    // eps=5e-4: through six layers the fd estimate at eps=1e-2 is dominated
    // by third-order terms (verified to converge to the analytic value).
    check_gradients(net, random_tensor(Shape{batch, 3, 6, 4}, rng),
                            5e-2, 5e-4f);
  }
}

// --- Training-state contract ---

TEST(TrainingState, SequentialTapeIsSingleUse) {
  util::Rng rng(33);
  Sequential net;
  net.emplace<Linear>(4, 3, rng);
  Tensor x = random_tensor(Shape{2, 4}, rng);
  Tensor probe = random_tensor(Shape{2, 3}, rng);
  Tensor grad_in(x.shape());
  Workspace ws;

  // No tape yet.
  EXPECT_THROW(net.backward_into(x.view(), probe.view(), grad_in.view(), ws),
               TrainingStateError);

  Tensor out(net.output_shape(x.shape()));
  net.forward_train_into(x.view(), out.view(), ws);
  net.backward_into(x.view(), probe.view(), grad_in.view(), ws);
  // The tape was consumed; a second backward must not silently reuse it.
  EXPECT_THROW(net.backward_into(x.view(), probe.view(), grad_in.view(), ws),
               TrainingStateError);
}

TEST(TrainingState, StaleGradientShapeThrows) {
  // A grad_output that does not match the recorded training forward is a
  // typed error, never a read of stale state: Sequential checks it against
  // its tape, Dropout against the element count of its last mask.
  util::Rng rng(32);
  Workspace ws;
  Sequential net;
  net.emplace<Linear>(6, 4, rng);
  const Tensor x = random_tensor(Shape{5, 6}, rng);
  train_forward(net, x, ws);
  const Tensor wrong = random_tensor(Shape{3, 4}, rng);  // batch 3 != 5
  Tensor grad_in(x.shape());
  EXPECT_THROW(net.backward_into(x.view(), wrong.view(), grad_in.view(), ws),
               TrainingStateError);

  Dropout dropout(0.5f, rng);
  const Tensor y = random_tensor(Shape{5, 6}, rng);
  train_forward(dropout, y, ws);
  const Tensor small(Shape{3, 6});
  Tensor grad_small(small.shape());
  EXPECT_THROW(dropout.backward_into(small.view(), small.view(),
                                     grad_small.view(), ws),
               TrainingStateError);
}

TEST(TrainingState, TrainingPlanValidatesInputs) {
  util::Rng rng(34);
  Sequential net;
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 3 * 3, 4, rng);
  TrainingPlan plan(net, Shape{2, 3, 3}, /*max_batch=*/4);

  Tensor good = random_tensor(Shape{4, 2, 3, 3}, rng);
  Tensor bad_shape = random_tensor(Shape{4, 2, 3, 5}, rng);
  EXPECT_THROW(plan.step(bad_shape.view(), {0, 1, 2, 3}), TrainingStateError);
  EXPECT_THROW(plan.step(good.view(), {0, 1}), TrainingStateError);  // 2 labels
  EXPECT_THROW(plan.step(good.view(), {0, 1, 2, 9}), TrainingStateError);
  EXPECT_NO_THROW(plan.step(good.view(), {0, 1, 2, 3}));
}

TEST(TrainingState, PlanWorkspaceStaysWithinBudget) {
  util::Rng rng(35);
  Sequential net;
  net.emplace<Conv2d>(3, 6, 3, 1, 1, true, rng);
  net.emplace<BatchNorm2d>(6);
  net.emplace<ActivationLayer>(Activation::kReLU);
  net.emplace<Flatten>();
  net.emplace<Linear>(6 * 8 * 8, 4, rng);
  TrainingPlan plan(net, Shape{3, 8, 8}, /*max_batch=*/8);

  Tensor x = random_tensor(Shape{8, 3, 8, 8}, rng);
  std::vector<std::int64_t> labels{0, 1, 2, 3, 0, 1, 2, 3};
  for (int i = 0; i < 3; ++i) plan.step(x.view(), labels);
  EXPECT_GT(plan.peak_workspace_bytes(), 0u);
  EXPECT_LE(plan.peak_workspace_bytes(), plan.planned_workspace_bytes());
}

TEST(TrainingState, PlanBudgetCoversSiblingBlockPins) {
  // Stacked MBConv blocks each pin their internal activation tape for the
  // whole forward; the budget must SUM sibling pins (a max over layers
  // underestimates — regression test for exactly that bug).
  util::Rng rng(36);
  MBConvConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  cfg.expand_ratio = 3;
  cfg.activation = Activation::kReLU6;
  Sequential net;
  for (int i = 0; i < 3; ++i) net.emplace<MBConvBlock>(cfg, rng);
  net.emplace<Flatten>();
  net.emplace<Linear>(8 * 6 * 6, 4, rng);
  TrainingPlan plan(net, Shape{8, 6, 6}, /*max_batch=*/4);

  Tensor x = random_tensor(Shape{4, 8, 6, 6}, rng);
  std::vector<std::int64_t> labels{0, 1, 2, 3};
  for (int i = 0; i < 2; ++i) plan.step(x.view(), labels);
  EXPECT_GT(plan.peak_workspace_bytes(), 0u);
  EXPECT_LE(plan.peak_workspace_bytes(), plan.planned_workspace_bytes());
}

// --- Dropout's counter-based stream ---

TEST(Dropout, CounterStreamIsReproducibleAndAdvances) {
  util::Rng rng_a(5), rng_b(5), data_rng(6);
  Dropout a(0.4f, rng_a);
  Dropout b(0.4f, rng_b);
  Tensor x = random_tensor(Shape{3, 4, 2, 2}, data_rng);

  Workspace ws;
  const Tensor y_a = train_forward(a, x, ws);
  const Tensor y_b = train_forward(b, x, ws);
  EXPECT_TRUE(tensors_bitwise_equal(y_a, y_b));  // same seed, same step

  const Tensor y_a2 = train_forward(a, x, ws);
  EXPECT_FALSE(tensors_bitwise_equal(y_a, y_a2));  // step advanced

  const Tensor eval = a.forward(x);
  EXPECT_TRUE(tensors_bitwise_equal(eval, x));  // inference is identity

  // The mask is a pure function of (seed, step, index): any thread count
  // produces the same bits.
  const int threads_before = util::thread_count();
  util::set_thread_count(4);
  util::Rng rng_c(5);
  Dropout c(0.4f, rng_c);
  const Tensor y_c = train_forward(c, x, ws);
  util::set_thread_count(threads_before);
  EXPECT_TRUE(tensors_bitwise_equal(y_a, y_c));
}

// --- Batch pipeline ---

data::Dataset small_dataset(std::int64_t classes = 3,
                            std::int64_t per_class = 8) {
  data::SynthCifarConfig cfg;
  cfg.num_classes = classes;
  cfg.samples_per_class = per_class;
  cfg.image_size = 8;
  cfg.seed = 321;
  return data::make_synth_cifar(cfg);
}

TEST(BatchPipeline, MatchesBatchIteratorBitwise) {
  const data::Dataset set = small_dataset(3, 5);  // N=15, batch 4 => ragged tail
  for (const int depth : {0, 2}) {
    util::Rng rng_iter(99), rng_pipe(99);
    data::BatchIterator it(set, 4, rng_iter);
    data::BatchPipeline pipe(set, 4, rng_pipe, depth);
    ASSERT_EQ(it.batches_per_epoch(), pipe.batches_per_epoch());

    for (int epoch = 0; epoch < 2; ++epoch) {
      it.reset();
      pipe.reset();
      Tensor it_images;
      TensorView pipe_images;
      std::vector<std::int64_t> it_labels, pipe_labels;
      while (it.next(it_images, it_labels)) {
        ASSERT_TRUE(pipe.next(pipe_images, pipe_labels)) << "depth " << depth;
        ASSERT_EQ(pipe_images.shape(), it_images.shape());
        EXPECT_EQ(std::memcmp(pipe_images.data(), it_images.data(),
                              static_cast<std::size_t>(it_images.numel()) *
                                  sizeof(float)),
                  0)
            << "depth " << depth << " epoch " << epoch;
        EXPECT_EQ(pipe_labels, it_labels);
      }
      TensorView leftover;
      std::vector<std::int64_t> leftover_labels;
      EXPECT_FALSE(pipe.next(leftover, leftover_labels));
    }
  }
}

TEST(BatchPipeline, PrefetchStallDelaysButPreservesStream) {
  const data::Dataset set = small_dataset(3, 5);
  util::Rng rng_ref(7), rng_faulty(7);
  data::BatchIterator reference(set, 4, rng_ref);

  util::fault::disarm_all();
  util::fault::arm("train.prefetch_stall", 2);
  data::BatchPipeline pipe(set, 4, rng_faulty, /*depth=*/2);

  Tensor ref_images;
  TensorView pipe_images;
  std::vector<std::int64_t> ref_labels, pipe_labels;
  while (reference.next(ref_images, ref_labels)) {
    ASSERT_TRUE(pipe.next(pipe_images, pipe_labels));
    EXPECT_EQ(std::memcmp(pipe_images.data(), ref_images.data(),
                          static_cast<std::size_t>(ref_images.numel()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(pipe_labels, ref_labels);
  }
  EXPECT_GT(util::fault::hits("train.prefetch_stall"), 0u);
  util::fault::disarm_all();
}

// --- End-to-end trainer parity / invariance ---

Sequential build_parity_model(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential net;
  net.emplace<Conv2d>(3, 8, 3, 1, 1, true, rng);
  net.emplace<BatchNorm2d>(8);
  net.emplace<ActivationLayer>(Activation::kReLU6);
  net.emplace<DepthwiseConv2d>(8, 3, 2, 1, rng);  // 8x8 -> 4x4
  net.emplace<BatchNorm2d>(8);
  net.emplace<ActivationLayer>(Activation::kSiLU);
  net.emplace<SqueezeExcite>(8, 4, Activation::kSiLU, rng);
  net.emplace<MaxPool2d>(2, 2);  // 4x4 -> 2x2
  net.emplace<Flatten>();
  net.emplace<Linear>(8 * 2 * 2, 3, rng);
  return net;
}

TrainConfig base_config() {
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.target_train_accuracy = 0.0f;  // no early stop: fixed schedule
  config.seed = 7;
  config.prefetch_depth = 0;
  return config;
}

TEST(Trainer, PrefetchDepthDoesNotChangeWeights) {
  const data::Dataset set = small_dataset();

  Sequential sync_model = build_parity_model(101);
  TrainConfig sync_config = base_config();
  sync_config.prefetch_depth = 0;
  train_classifier(sync_model, set, sync_config);

  Sequential deep_model = build_parity_model(101);
  TrainConfig deep_config = base_config();
  deep_config.prefetch_depth = 2;
  train_classifier(deep_model, set, deep_config);

  EXPECT_TRUE(models_bitwise_equal(sync_model, deep_model));
}

TEST(Trainer, ThreadCountInvariantGradientAccumulation) {
  const data::Dataset set = small_dataset();
  const int threads_before = util::thread_count();

  util::set_thread_count(1);
  Sequential reference = build_parity_model(102);
  train_classifier(reference, set, base_config());

  for (const int threads : {4, 8}) {
    util::set_thread_count(threads);
    Sequential model = build_parity_model(102);
    train_classifier(model, set, base_config());
    EXPECT_TRUE(models_bitwise_equal(reference, model))
        << "NSHD_THREADS=" << threads;
  }
  util::set_thread_count(threads_before);
}

Sequential build_dropout_model(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential net;
  net.emplace<Conv2d>(3, 6, 3, 2, 1, true, rng);  // 8x8 -> 4x4
  net.emplace<BatchNorm2d>(6);
  net.emplace<ActivationLayer>(Activation::kReLU);
  net.emplace<Flatten>();
  net.emplace<Dropout>(0.25f, rng);
  net.emplace<Linear>(6 * 4 * 4, 3, rng);
  return net;
}

TEST(Trainer, KillResumeIsBitwiseThroughPlannedPath) {
  // The model includes Dropout so the resumable step counter is exercised.
  const data::Dataset set = small_dataset();
  TrainConfig config = base_config();
  config.epochs = 3;

  Sequential straight = build_dropout_model(103);
  TrainCheckpoint after_first;
  bool captured = false;
  train_classifier(straight, set, config,
                   [&](const EpochStats& stats, const TrainCheckpoint& tc) {
                     if (stats.epoch == 0) {
                       after_first = tc;
                       captured = true;
                     }
                   });
  ASSERT_TRUE(captured);

  Sequential resumed = build_dropout_model(103);
  const TrainReport report =
      train_classifier(resumed, set, config, {}, &after_first);
  EXPECT_EQ(report.resumed_from_epoch, 1);
  EXPECT_TRUE(models_bitwise_equal(straight, resumed));
}

TEST(Trainer, GradNanFaultTriggersDivergenceRecovery) {
  const data::Dataset set = small_dataset();
  util::fault::disarm_all();
  util::fault::arm("train.grad_nan", 1);  // poison the first planned step

  Sequential model = build_parity_model(104);
  TrainConfig config = base_config();
  const TrainReport report = train_classifier(model, set, config);

  EXPECT_GT(util::fault::hits("train.grad_nan"), 0u);
  util::fault::disarm_all();

  EXPECT_EQ(report.divergence_recoveries, 1);
  EXPECT_FALSE(report.diverged);
  std::vector<Tensor*> state;
  model.append_state(state);
  for (const Tensor* t : state)
    for (const float v : t->span()) ASSERT_TRUE(std::isfinite(v));

  // Both configured epochs still completed after the rollback-and-retry.
  EXPECT_EQ(report.epochs.size(), 2u);
}

}  // namespace
}  // namespace nshd::nn
