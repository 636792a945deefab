// train_mobilenet_kd: raw dataset to trained NSHD model.
//
// The only workload that runs nn::TrainingPlan (through
// nn::train_classifier) and the Algorithm 1 loop (NshdModel::train with
// knowledge distillation and manifold STE).  The job: teacher epochs, cut
// feature extraction, teacher logits, Algorithm 1.  The trained model then
// classifies a fixed test set in batches of 32, two passes, outside the
// training window.
//
// Two epochs from random init make accuracy swing with the training images
// and their order, so the whole training job is fixed and top1_acc is an
// exact check; the run seed only orders the test batches.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nshd;

constexpr std::size_t kCut = 17;
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kDim = 3000;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kTrainPerClass = 50;   // 500 training images
constexpr std::int64_t kTestPerClass = 50;    // 500 test images
constexpr std::int64_t kTeacherEpochs = 2;
constexpr std::int64_t kNshdEpochs = 12;
constexpr int kTestPasses = 2;
constexpr double kMinTop1 = 0.15;  // chance is 0.1
constexpr Budgets kBudgets{kSetupBudget, {/*callers=*/1, /*pool=*/2, /*engine_workers=*/0}};

struct State {
  data::Dataset train;  // the raw dataset
  data::Dataset test;   // the evaluation set
  models::ZooModel zoo;
};

std::unique_ptr<State> set_up(SetupPhases& phases) {
  auto s = std::make_unique<State>();
  timed(phases.data, [&] {
    s->train = data::make_synth_cifar(world(kClasses, kTrainPerClass, false), 0);
    s->test = data::make_synth_cifar(world(kClasses, kTestPerClass, false), 1);
  });
  timed(phases.model, [&] { s->zoo = models::make_mobilenetv2s(kClasses, kModelSeed); });
  return s;
}

}  // namespace

void run_train(const Options& options, Report& report, Tracer& tracer) {
  const std::unique_ptr<State> s =
      repeated_setup<State>(kSetupReps, kBudgets, report,
                            [](SetupPhases& phases) { return set_up(phases); });
  const data::Dataset& train = s->train;
  models::ZooModel& zoo = s->zoo;

  core::NshdConfig config;
  config.dim = kDim;
  config.epochs = kNshdEpochs;
  config.alpha = 0.7f;
  config.temperature = 15.0f;
  config.use_kd = true;
  config.train_manifold = true;
  config.ste = core::SteMode::kClipped;
  config.seed = kHeadSeed;
  std::unique_ptr<core::NshdModel> nshd;
  std::unique_ptr<nn::InferencePlan> plan;
  double teacher_s = 0.0, extract_s = 0.0, logits_s = 0.0, nshd_s = 0.0;
  std::vector<double> epoch_ms;
  const Clock::time_point job_start = Clock::now();
  {
    Tracer::Scope job(tracer, "train.job");
    timed(teacher_s, [&] {
      Tracer::Scope span(tracer, "nn.train_classifier");
      nn::TrainConfig teacher;
      teacher.epochs = kTeacherEpochs;
      teacher.batch_size = kBatch;
      teacher.learning_rate = zoo.suggested_learning_rate;
      teacher.seed = kModelSeed;
      // Epoch wall times, marked from here through the trainer's epoch hook.
      Clock::time_point mark = Clock::now();
      nn::train_classifier(zoo.net, train, teacher,
                           [&](const nn::EpochStats&, const nn::TrainCheckpoint&) {
                             const Clock::time_point now = Clock::now();
                             epoch_ms.push_back(ms_between(mark, now));
                             mark = now;
                           });
    });
    plan = std::make_unique<nn::InferencePlan>(zoo.net, zoo.input_chw, kCut, kBatch);
    const core::ExtractedFeatures features = timed(extract_s, [&] {
      Tracer::Scope span(tracer, "core.extract_features");
      return core::extract_features(*plan, train, kBatch);
    });
    const tensor::Tensor logits = timed(logits_s, [&] {
      Tracer::Scope span(tracer, "nn.predict_logits");
      nn::InferencePlan full(zoo.net, zoo.input_chw, zoo.net.size() - 1, kBatch);
      return nn::predict_logits(full, train, kBatch);
    });
    nshd = std::make_unique<core::NshdModel>(zoo, kCut, config);
    timed(nshd_s, [&] {
      Tracer::Scope span(tracer, "core.nshd_train");
      nshd->train(features, train.labels, &logits);
    });
  }
  const double train_s = s_between(job_start, Clock::now());
  report.op(true);  // the training job itself; its output is gated below

  // Test: fixed passes over the test set; every pass must predict the same.
  const data::Dataset& test = s->test;
  const std::int64_t n = test.size();
  std::vector<std::int64_t> first(static_cast<std::size_t>(n), -1);
  std::vector<double> batch_ms;
  core::ExtractedFeatures full = feature_buffer(*plan, kBatch);
  core::ExtractedFeatures tail = feature_buffer(*plan, n - (n - 1) / kBatch * kBatch);
  std::vector<std::int64_t> order;
  for (std::int64_t begin = 0; begin < n; begin += kBatch) order.push_back(begin);
  util::Rng rng(derive_seed(options.seed, 7));
  for (int pass = 0; pass < kTestPasses; ++pass) {
    rng.shuffle(order);
    for (const std::int64_t begin : order) {
      const std::int64_t rows = std::min(kBatch, n - begin);
      const Clock::time_point start = Clock::now();
      std::vector<std::int64_t> predicted;
      {
        Tracer::Scope span(tracer, "train.test_batch", begin);
        predicted = argmax_rows(classify(tracer, "nn.plan.run_batch", *plan, *nshd,
                                         image_rows(test.images, begin, rows),
                                         rows == kBatch ? full : tail));
      }
      batch_ms.push_back(ms_between(start, Clock::now()));
      bool same = true;
      for (std::int64_t i = 0; i < rows; ++i) {
        std::int64_t& ref = first[static_cast<std::size_t>(begin + i)];
        if (pass == 0) ref = predicted[static_cast<std::size_t>(i)];
        same = same && ref == predicted[static_cast<std::size_t>(i)];
      }
      report.op(same);
    }
  }
  report.gate(report.failed() == 0, "train: test predictions identical on every pass");
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    correct += first[static_cast<std::size_t>(i)] == test.labels[static_cast<std::size_t>(i)];
  }
  const double top1 = static_cast<double>(correct) / static_cast<double>(n);
  report.gate(top1 >= kMinTop1, "train: top1_acc above the broken-training floor");

  report.metric("images_per_s", static_cast<double>(train.size()) / train_s, "1/s");
  // Batch-32 f32 test latency moved by up to 25% between runs of the same
  // code on a shared host; a teacher epoch is long enough to be steady.
  report.metric("lat_p50_ms", median(epoch_ms), "ms");
  report.metric("top1_acc", top1, "share");

  report.metric("train_s", train_s, "s");
  report.metric("train.test_batch_ms", median(batch_ms), "ms");
  report.metric("nn.train.images_per_s",
                static_cast<double>(train.size() * kTeacherEpochs) / teacher_s, "1/s");
  report.metric("core.extract_s", extract_s, "s");
  report.metric("nn.predict_logits_s", logits_s, "s");
  report.metric("core.nshd_train_s", nshd_s, "s");
  const hw::NshdCensus census =
      hw::nshd_census(zoo, kCut, kDim, nshd->config().manifold_features, kClasses);
  report_sizes(report, census);
  if (!tracer.enabled()) return;
  report_head(tracer, report, "train.test_batch", census, static_cast<double>(kBatch));
  probe_plan(tracer, report, *plan, test.images, census.prefix_macs);
}

}  // namespace perfbench
