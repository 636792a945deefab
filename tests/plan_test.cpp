// Tests for the planned inference engine: tensor::Workspace arena
// semantics, InferencePlan against the independent double-precision
// reference (reference_net.hpp) across every zoo model and cut point, bitwise
// batch- and thread-invariance, plan-based extraction and evaluation, and
// thread-safety of concurrent run_batch calls, and batch-composition
// invariance of features and HD scores for the f32 and int8 plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/feature_extractor.hpp"
#include "core/nshd.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "nn/trainer.hpp"
#include "tensor/workspace.hpp"
#include "util/thread_pool.hpp"

#include "reference_net.hpp"

namespace nshd {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;
using tensor::Workspace;

// --- Workspace ---

TEST(Workspace, AllocsAreAlignedAndDisjoint) {
  Workspace ws;
  float* a = ws.alloc(10);
  float* b = ws.alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % Workspace::kAlignBytes, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Workspace::kAlignBytes, 0u);
  // Aligned bump: b starts at least 10 floats past a.
  EXPECT_GE(b, a + 10);
  EXPECT_EQ(ws.alloc(0), nullptr);
}

TEST(Workspace, SpansSurviveGrowth) {
  Workspace ws;  // no reserve: the first alloc creates a minimal block
  float* small = ws.alloc(8);
  for (int i = 0; i < 8; ++i) small[i] = static_cast<float>(i);
  // Way past any existing capacity: must append a block, not reallocate.
  float* big = ws.alloc(1 << 20);
  ASSERT_NE(big, nullptr);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(small[i], static_cast<float>(i));
}

TEST(Workspace, ResetRewindsToStart) {
  Workspace ws(256);
  float* first = ws.alloc(64);
  ws.alloc(64);
  EXPECT_GT(ws.in_use_floats(), 0u);
  ws.reset();
  EXPECT_EQ(ws.in_use_floats(), 0u);
  EXPECT_EQ(ws.alloc(64), first);  // same storage handed out again
}

TEST(Workspace, FrameReleasesScopedAllocations) {
  Workspace ws(1024);
  ws.alloc(64);
  const std::size_t before = ws.in_use_floats();
  float* inner_first = nullptr;
  {
    Workspace::Frame frame(ws);
    inner_first = ws.alloc(128);
    EXPECT_GT(ws.in_use_floats(), before);
  }
  EXPECT_EQ(ws.in_use_floats(), before);
  EXPECT_EQ(ws.alloc(128), inner_first);  // frame memory is reusable
}

TEST(Workspace, PeakTracksHighWater) {
  Workspace ws(1024);
  ws.alloc(100);
  const std::size_t peak_after_100 = ws.peak_floats();
  EXPECT_GE(peak_after_100, 100u);
  ws.reset();
  ws.alloc(50);
  EXPECT_EQ(ws.peak_floats(), peak_after_100);  // peak never shrinks
  EXPECT_EQ(ws.peak_bytes(), peak_after_100 * sizeof(float));
}

TEST(Workspace, ReserveGrowsCapacityOnly) {
  Workspace ws;
  ws.reserve(4096);
  EXPECT_GE(ws.capacity_floats(), 4096u);
  EXPECT_EQ(ws.in_use_floats(), 0u);
  EXPECT_EQ(ws.peak_floats(), 0u);
}

TEST(Workspace, DestroyedArenaBlocksAreRecycled) {
  Workspace::trim_pool();
  float* first = nullptr;
  std::size_t capacity = 0;
  {
    Workspace ws(1 << 20);
    first = ws.alloc(64);
    capacity = ws.capacity_floats();
  }
  // The dead arena's block is parked, not freed...
  EXPECT_EQ(Workspace::pooled_blocks(), 1u);
  EXPECT_EQ(Workspace::pooled_floats(), capacity);
  {
    // ...and the next arena of a compatible size reuses the same pages.
    Workspace ws(1 << 20);
    EXPECT_EQ(ws.alloc(64), first);
    EXPECT_EQ(Workspace::pooled_blocks(), 0u);
  }
  EXPECT_EQ(Workspace::pooled_blocks(), 1u);
  Workspace::trim_pool();
  EXPECT_EQ(Workspace::pooled_blocks(), 0u);
  EXPECT_EQ(Workspace::pooled_floats(), 0u);
}

// --- Parity helpers ---

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  if (got.numel() == 0) return;
  const int cmp =
      std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(got.numel()) * sizeof(float));
  if (cmp != 0) {
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << what << ": first value mismatch at flat index " << i;
    }
  }
  EXPECT_EQ(cmp, 0) << what;
}

data::Dataset small_dataset(std::int64_t num_classes, std::int64_t per_class) {
  data::SynthCifarConfig config;
  config.num_classes = num_classes;
  config.samples_per_class = per_class;
  return data::make_synth_cifar(config);
}

/// Copies samples [begin, begin+n) of `ds` into a standalone batch tensor.
Tensor batch_of(const data::Dataset& ds, std::int64_t begin, std::int64_t n) {
  const std::int64_t s = ds.sample_shape().numel();
  const TensorView all = ds.images.view();
  return Tensor::from_view(TensorView(
      all.data() + begin * s, Shape{n, ds.channels(), ds.height(), ds.width()}));
}

/// Planned forward of the same slice through `plan`.
Tensor planned_batch(nn::InferencePlan& plan, const data::Dataset& ds,
                     std::int64_t begin, std::int64_t n) {
  const std::int64_t s = ds.sample_shape().numel();
  const TensorView all = ds.images.view();
  const TensorView in(all.data() + begin * s,
                      Shape{n, ds.channels(), ds.height(), ds.width()});
  Tensor out(plan.output_shape(n));
  plan.run_batch(in, out.view());
  return out;
}

// Relative L2 distance allowed between a planned float prefix and the
// double-precision reference.  The float kernels round once per MAC and per
// layer; across every zoo model and cut the measured distance stays below
// 3e-6 (SSE2 build), while a wrong tap, a dropped tail or a misindexed
// channel moves it to O(1e-2) or more.
constexpr double kPrefixTolerance = 1e-4;

void expect_near_reference(const Tensor& planned, const Tensor& reference,
                           const std::string& what) {
  ASSERT_EQ(planned.numel(), reference.numel()) << what;
  EXPECT_LT(reference::rel_l2(planned, reference), kPrefixTolerance) << what;
}

/// Row `row` of a batched output, as a batch-1 tensor.
Tensor row_of(const Tensor& batch, std::int64_t row) {
  const std::int64_t per = batch.numel() / batch.shape()[0];
  std::vector<std::int64_t> dims = batch.shape().dims();
  dims[0] = 1;
  Tensor out{Shape(dims)};
  std::memcpy(out.data(), batch.data() + row * per,
              static_cast<std::size_t>(per) * sizeof(float));
  return out;
}

void check_model_parity(const std::string& name) {
  models::ZooModel m = models::make_model(name, 4, /*seed=*/3);
  const data::Dataset ds = small_dataset(4, 8);  // 32 samples
  ASSERT_GE(ds.size(), 32);

  // Every valid cut at an odd batch size, against one reference pass that
  // records every top-level boundary.
  const std::vector<Tensor> ref7 = reference::forward_prefix(
      m.net, batch_of(ds, 0, 7), m.feature_count - 1);
  for (std::size_t cut = 0; cut < m.feature_count; ++cut) {
    nn::InferencePlan plan(m.net, m.input_chw, cut, /*max_batch=*/7);
    EXPECT_EQ(plan.output_shape(7),
              m.net.output_shape_at(Shape{7, 3, 32, 32}, cut));
    expect_near_reference(planned_batch(plan, ds, 0, 7), ref7[cut],
                          name + " cut=" + std::to_string(cut) + " batch=7");
  }

  // The paper's cut points at the batch-size extremes (1 and 32).  The
  // reference is per-sample, so batch 1 is row 0 of the batch-32 reference;
  // the planned batch-1 run must equal row 0 of the planned batch-32 run
  // bitwise, and batch 32 must not depend on NSHD_THREADS.
  const std::size_t deepest = *std::max_element(m.paper_cut_layers.begin(),
                                                m.paper_cut_layers.end());
  const std::vector<Tensor> ref32 =
      reference::forward_prefix(m.net, batch_of(ds, 0, 32), deepest);
  const int threads_before = util::thread_count();
  for (std::size_t cut : m.paper_cut_layers) {
    const std::string what = name + " cut=" + std::to_string(cut);
    nn::InferencePlan plan(m.net, m.input_chw, cut, /*max_batch=*/32);
    util::set_thread_count(1);
    const Tensor serial = planned_batch(plan, ds, 0, 32);
    util::set_thread_count(4);
    const Tensor parallel = planned_batch(plan, ds, 0, 32);
    util::set_thread_count(threads_before);
    const Tensor one = planned_batch(plan, ds, 0, 1);

    expect_near_reference(serial, ref32[cut], what + " batch=32");
    expect_near_reference(one, row_of(ref32[cut], 0), what + " batch=1");
    expect_bitwise_equal(parallel, serial, what + " NSHD_THREADS 4 vs 1");
    expect_bitwise_equal(one, row_of(serial, 0), what + " batch 1 vs row 0");
    EXPECT_GT(plan.peak_workspace_bytes(), 0u);
  }
}

// --- InferencePlan vs the reference: every model x every cut ---

TEST(PlanParity, Vgg16sAllCuts) { check_model_parity("vgg16s"); }
TEST(PlanParity, MobileNetV2sAllCuts) { check_model_parity("mobilenetv2s"); }
TEST(PlanParity, EfficientNetB0sAllCuts) { check_model_parity("efficientnet_b0s"); }
TEST(PlanParity, EfficientNetB7sAllCuts) { check_model_parity("efficientnet_b7s"); }

TEST(PlanParity, FullNetworkLogits) {
  models::ZooModel m = models::make_model("mobilenetv2s", 4, 3);
  const data::Dataset ds = small_dataset(4, 8);
  const std::size_t last = m.net.size() - 1;
  nn::InferencePlan plan(m.net, m.input_chw, last, 32);
  const Tensor images = batch_of(ds, 0, ds.size());
  const Tensor planned = planned_batch(plan, ds, 0, ds.size());
  expect_near_reference(planned, reference::forward(m.net, images),
                        "full-net logits");
  EXPECT_EQ(planned.shape(), (Shape{ds.size(), 4}));
  // The allocating convenience runs the same forward_into chain.
  expect_bitwise_equal(m.net.forward(images), planned, "Layer::forward");
}

// --- Plan-based extraction and evaluation ---

TEST(PlanExtraction, ExtractOneMatchesBatchedRow) {
  models::ZooModel m = models::make_model("mobilenetv2s", 4, 3);
  const data::Dataset ds = small_dataset(4, 3);
  nn::InferencePlan plan(m.net, m.input_chw, 5, 5);

  const core::ExtractedFeatures feats =
      core::extract_features(plan, ds, /*batch_size=*/5);
  EXPECT_EQ(feats.values.shape()[0], ds.size());
  EXPECT_EQ(feats.values.shape()[1], m.feature_dim_at(5));
  EXPECT_EQ(feats.chw, m.feature_shape_at(5));

  const Tensor one = core::extract_one(plan, ds.sample(7));
  const std::int64_t f = feats.values.shape()[1];
  ASSERT_EQ(one.numel(), f);
  for (std::int64_t i = 0; i < f; ++i) {
    EXPECT_EQ(feats.values.at(7, i), one[i]) << "feature " << i;
  }
}

TEST(PlanExtraction, EmptyDatasetYieldsEmptyRows) {
  models::ZooModel m = models::make_model("efficientnet_b0s", 4, 3);
  data::Dataset empty;
  empty.num_classes = 4;
  nn::InferencePlan plan(m.net, m.input_chw, 2, 4);
  const core::ExtractedFeatures feats = core::extract_features(plan, empty);
  EXPECT_EQ(feats.values.shape()[0], 0);
  EXPECT_EQ(feats.values.numel(), 0);
  EXPECT_EQ(feats.chw.numel(), m.feature_dim_at(2));

  EXPECT_EQ(nn::evaluate_classifier(m.net, empty), 0.0);
  EXPECT_TRUE(nn::predict_logits(m.net, empty).empty());
}

TEST(PlanExtraction, EvaluateClassifierMatchesManualLoop) {
  models::ZooModel m = models::make_model("mobilenetv2s", 4, 3);
  const data::Dataset ds = small_dataset(4, 8);

  std::int64_t correct = 0;
  const Tensor logits = m.net.forward(batch_of(ds, 0, ds.size()));
  for (std::int64_t n = 0; n < ds.size(); ++n) {
    std::int64_t best = 0;
    for (std::int64_t k = 1; k < 4; ++k)
      if (logits.at(n, k) > logits.at(n, best)) best = k;
    if (best == ds.labels[static_cast<std::size_t>(n)]) ++correct;
  }
  const double expected = static_cast<double>(correct) /
                          static_cast<double>(ds.size());
  EXPECT_EQ(nn::evaluate_classifier(m.net, ds, /*batch_size=*/7), expected);

  const Tensor pl = nn::predict_logits(m.net, ds, /*batch_size=*/7);
  expect_bitwise_equal(pl, logits, "predict_logits");
}

// --- Determinism and thread safety ---

TEST(PlanThreading, ExtractionIsThreadCountInvariant) {
  models::ZooModel m = models::make_model("efficientnet_b0s", 4, 3);
  const data::Dataset ds = small_dataset(4, 8);
  nn::InferencePlan plan(m.net, m.input_chw, 4, 8);

  const int original = util::thread_count();
  util::set_thread_count(1);
  const core::ExtractedFeatures serial = core::extract_features(plan, ds, 8);
  util::set_thread_count(4);
  const core::ExtractedFeatures parallel = core::extract_features(plan, ds, 8);
  util::set_thread_count(original);

  expect_bitwise_equal(parallel.values, serial.values, "thread invariance");
}

TEST(PlanThreading, ConcurrentRunBatchIsSafe) {
  models::ZooModel m = models::make_model("efficientnet_b0s", 4, 3);
  const data::Dataset ds = small_dataset(4, 8);  // 32 samples
  nn::InferencePlan plan(m.net, m.input_chw, 3, 8);
  const std::int64_t f = plan.out_features();
  const std::int64_t s = ds.sample_shape().numel();

  // Reference, computed serially through the same plan.
  const core::ExtractedFeatures reference = core::extract_features(plan, ds, 8);

  // Four raw threads hammer the plan concurrently on disjoint output rows.
  Tensor out(Shape{ds.size(), f});
  const TensorView images = ds.images.view();
  const TensorView rows = out.view();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::int64_t begin = t * 8;
      const TensorView in(images.data() + begin * s, Shape{8, 3, 32, 32});
      TensorView slice(rows.data() + begin * f, Shape{8, f});
      plan.run_batch(in, slice);
    });
  }
  for (auto& thread : threads) thread.join();

  expect_bitwise_equal(out, reference.values, "concurrent run_batch");
  EXPECT_GE(plan.workspace_count(), 1u);
}

TEST(PlanReporting, WorkspaceBudgetIsReported) {
  models::ZooModel m = models::make_model("mobilenetv2s", 4, 3);
  nn::InferencePlan plan(m.net, m.input_chw, 10, 16);
  EXPECT_GT(plan.planned_workspace_bytes(), 0u);
  EXPECT_EQ(plan.peak_workspace_bytes(), 0u);  // nothing run yet

  const data::Dataset ds = small_dataset(4, 4);
  core::extract_features(plan, ds, 16);
  EXPECT_GT(plan.peak_workspace_bytes(), 0u);
  // The shape-inferred budget must cover the observed high water; if this
  // fails, scratch_floats underestimates and plans grow mid-flight.
  EXPECT_LE(plan.peak_workspace_bytes(), plan.planned_workspace_bytes());
}

TEST(PlanReporting, OversizedBatchLeaseIsReleasedNotPooled) {
  models::ZooModel m = models::make_model("mobilenetv2s", 4, 3);
  nn::InferencePlan plan(m.net, m.input_chw, 4, /*max_batch=*/4);
  const data::Dataset ds = small_dataset(4, 8);  // 32 samples
  const TensorView images = ds.images.view();
  const std::int64_t s = ds.sample_shape().numel();

  // Steady state: a batch within max_batch pools exactly one workspace and
  // stays inside the shape-inferred budget.
  Tensor out4(plan.output_shape(4));
  const TensorView in4(images.data(), Shape{4, 3, 32, 32});
  plan.run_batch(in4, out4.view());
  EXPECT_EQ(plan.workspace_count(), 1u);
  EXPECT_LE(plan.peak_workspace_bytes(), plan.planned_workspace_bytes());

  // One oversized burst (n = 32 > max_batch = 4) needs far more arena than
  // planned; it must run on a throwaway workspace, never inflating the pool.
  Tensor out(plan.output_shape(ds.size()));
  plan.run_batch(images, out.view());
  EXPECT_EQ(plan.workspace_count(), 1u);
  // Peak tracking still records the burst's true high water.
  const std::size_t burst_peak = plan.peak_workspace_bytes();
  EXPECT_GT(burst_peak, plan.planned_workspace_bytes());

  // Back to steady traffic: the planned-size workspace is re-used and the
  // burst peak remains visible.
  const TensorView in4b(images.data() + 4 * s, Shape{4, 3, 32, 32});
  plan.run_batch(in4b, out4.view());
  EXPECT_EQ(plan.workspace_count(), 1u);
  EXPECT_EQ(plan.peak_workspace_bytes(), burst_peak);
}

// --- Batch composition ---
//
// The serving engine forms batches of whatever size the arrival pattern
// gives it, so a row's features and its HD scores must not depend on the
// batch it rode in: every row of a batch of n must be bitwise equal to the
// same image run alone.  n = 33 exceeds max_batch and takes the burst path.

/// [n, K] scores of `features` rows through the NSHD head.
Tensor head_scores(const core::NshdModel& nshd, const models::ZooModel& m,
                   std::size_t cut, const Tensor& features) {
  core::ExtractedFeatures rows;
  rows.cut_layer = cut;
  rows.chw = m.feature_shape_at(cut);
  const std::int64_t n = features.shape()[0];
  rows.values = features.reshaped(Shape{n, features.numel() / n});
  return nshd.classifier().similarities_all(nshd.symbolize_all(rows),
                                            nshd.config().similarity);
}

void check_batch_composition(nn::Plan& plan, models::ZooModel& m,
                             std::size_t cut, std::int64_t dim,
                             const std::string& name) {
  constexpr std::int64_t kClasses = 10;
  const data::Dataset ds = small_dataset(kClasses, 4);  // 40 images
  core::NshdConfig config;
  config.dim = dim;
  config.manifold_features = 32;
  config.epochs = 1;
  config.use_kd = false;
  config.train_manifold = false;
  core::NshdModel nshd(m, cut, config);
  nshd.train(core::extract_features(plan, ds, plan.max_batch()), ds.labels,
             /*teacher_logits=*/nullptr);

  const std::vector<std::int64_t> sizes = {1, 2, 3, 5, 7, 13, 31, 32, 33};
  const std::int64_t rows = sizes.back();
  ASSERT_GT(rows, plan.max_batch());
  const int threads_before = util::thread_count();
  for (const int threads : {1, 4}) {
    util::set_thread_count(threads);
    std::vector<Tensor> single_features, single_scores;
    for (std::int64_t r = 0; r < rows; ++r) {
      single_features.push_back(planned_batch(plan, ds, r, 1));
      single_scores.push_back(head_scores(nshd, m, cut, single_features.back()));
    }
    for (const std::int64_t n : sizes) {
      const Tensor features = planned_batch(plan, ds, 0, n);
      const Tensor scores = head_scores(nshd, m, cut, features);
      for (std::int64_t r = 0; r < n; ++r) {
        const std::string what = name + " threads=" + std::to_string(threads) +
                                 " n=" + std::to_string(n) +
                                 " row=" + std::to_string(r);
        expect_bitwise_equal(row_of(features, r),
                             single_features[static_cast<std::size_t>(r)],
                             what + " features");
        expect_bitwise_equal(row_of(scores, r),
                             single_scores[static_cast<std::size_t>(r)],
                             what + " scores");
      }
    }
  }
  util::set_thread_count(threads_before);
}

TEST(PlanBatchComposition, F32MobileNetV2sRowsIgnoreBatch) {
  models::ZooModel m = models::make_model("mobilenetv2s", 10, /*seed=*/7);
  nn::InferencePlan plan(m.net, m.input_chw, 17, /*max_batch=*/32);
  check_batch_composition(plan, m, 17, /*dim=*/3000, "f32 mobilenetv2s cut=17");
}

TEST(PlanBatchComposition, Int8Vgg16sRowsIgnoreBatch) {
  models::ZooModel m = models::make_model("vgg16s", 10, /*seed=*/7);
  nn::QuantizedInferencePlan plan(m.net, m.input_chw, 29, /*max_batch=*/32);
  const data::Dataset calib = small_dataset(10, 4);
  ASSERT_EQ(plan.calibrate(calib.images.view(), 32).int8_layers, 30);
  check_batch_composition(plan, m, 29, /*dim=*/10000, "int8 vgg16s cut=29");
}

}  // namespace
}  // namespace nshd
