// bulk_vgg16_int8_d10k: batched int8 classification with a wide HD head.
//
// vgg16s cut 29 is the zoo prefix whose every layer compiles to int8 (no
// f32 fallback), and D = 10000 with K = 100 makes the HD head a visible
// share of each batch.  The job classifies a seed-drawn 1000-image set in
// batches of 32 through QuantizedInferencePlan::run_batch ->
// NshdModel::symbolize_all -> HdClassifier::similarities_all, for a fixed
// number of passes.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/quant_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nshd;

constexpr std::size_t kCut = 29;
constexpr std::int64_t kClasses = 100;
constexpr std::int64_t kDim = 10000;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kTrainPerClass = 5;  // 500 fixed head-training images
constexpr std::int64_t kEvalPerClass = 5;   // 500-image fixed evaluation set
constexpr std::int64_t kJobPerClass = 10;   // 1000 seed-drawn images per pass
constexpr std::int64_t kCalibImages = 256;
// Passes per second of --seconds, sized on a 4-core x86-64 host at the
// default SSE2 build (about 1.2 s per 1000-image pass).
constexpr double kPassesPerSecond = 1.0;
// On these images the head scores well above chance (0.01); below this the
// pipeline is broken.
constexpr double kMinTop1 = 0.05;
constexpr Budgets kBudgets{kSetupBudget, {/*callers=*/1, /*pool=*/2, /*engine_workers=*/0}};

struct State {
  data::Dataset train, eval, job;
  models::ZooModel zoo;
  std::unique_ptr<core::NshdModel> nshd;
  std::unique_ptr<nn::InferencePlan> plan;
  std::unique_ptr<nn::QuantizedInferencePlan> qplan;
};

std::unique_ptr<State> set_up(std::uint64_t seed, SetupPhases& phases) {
  auto s = std::make_unique<State>();
  timed(phases.data, [&] {
    s->train = data::make_synth_cifar(world(kClasses, kTrainPerClass, true), 0);
    s->eval = data::make_synth_cifar(world(kClasses, kEvalPerClass, true), 1);
    s->job = data::make_synth_cifar(world(kClasses, kJobPerClass, true), seed_split(seed));
  });
  timed(phases.model, [&] {
    s->zoo = models::make_vgg16s(kClasses, kModelSeed);
    core::NshdConfig config;
    config.dim = kDim;
    config.epochs = 3;
    config.use_kd = false;
    config.train_manifold = false;
    config.seed = kHeadSeed;
    s->nshd = std::make_unique<core::NshdModel>(s->zoo, kCut, config);
    s->plan = std::make_unique<nn::InferencePlan>(s->zoo.net, s->zoo.input_chw, kCut,
                                                  kBatch);
  });
  const core::ExtractedFeatures features = timed(
      phases.extract, [&] { return core::extract_features(*s->plan, s->train, kBatch); });
  timed(phases.train,
        [&] { s->nshd->train(features, s->train.labels, /*teacher_logits=*/nullptr); });
  timed(phases.calibrate, [&] {
    s->qplan = std::make_unique<nn::QuantizedInferencePlan>(s->zoo.net, s->zoo.input_chw,
                                                            kCut, kBatch);
    s->qplan->calibrate(image_rows(s->train.images, 0, kCalibImages), kBatch);
  });
  return s;
}

/// Classifies `images` in batches of 32 through the int8 pipeline, one span
/// per batch; appends each batch's wall time to `batch_ms` when given.
std::vector<std::int64_t> classify_all(Tracer& tracer, State& s, const data::Dataset& images,
                                       std::vector<double>* batch_ms) {
  const std::int64_t n = images.size();
  core::ExtractedFeatures full = feature_buffer(*s.qplan, kBatch);
  core::ExtractedFeatures tail = feature_buffer(*s.qplan, n - (n - 1) / kBatch * kBatch);
  std::vector<std::int64_t> predicted;
  predicted.reserve(static_cast<std::size_t>(n));
  for (std::int64_t begin = 0; begin < n; begin += kBatch) {
    const std::int64_t rows = std::min(kBatch, n - begin);
    const Clock::time_point start = Clock::now();
    std::vector<std::int64_t> batch;
    {
      Tracer::Scope span(tracer, "bulk.batch", begin / kBatch);
      batch = argmax_rows(classify(tracer, "nn.qplan.run_batch", *s.qplan, *s.nshd,
                                   image_rows(images.images, begin, rows),
                                   rows == kBatch ? full : tail));
    }
    if (batch_ms != nullptr) batch_ms->push_back(ms_between(start, Clock::now()));
    predicted.insert(predicted.end(), batch.begin(), batch.end());
  }
  return predicted;
}

}  // namespace

void run_bulk(const Options& options, Report& report, Tracer& tracer) {
  const std::unique_ptr<State> s =
      repeated_setup<State>(kSetupReps, kBudgets, report,
                            [&](SetupPhases& phases) { return set_up(options.seed, phases); });

  const std::int64_t n = s->job.size();
  const int passes = std::max(2, static_cast<int>(kPassesPerSecond * options.seconds + 0.5));
  std::vector<std::int64_t> first_pass;
  std::vector<double> batch_ms;
  double untraced_s = 0.0, traced_s = 0.0;
  std::int64_t traced_images = 0;
  std::vector<double> pass_rate;
  for (int pass = 0; pass < passes; ++pass) {
    // A traced run records spans on odd passes only; the even passes time
    // the same work untraced, which gives the tracing overhead.
    const bool traced = pass % 2 == 1;
    tracer.set_recording(traced);
    const Clock::time_point pass_start = Clock::now();
    const std::vector<std::int64_t> predicted = classify_all(tracer, *s, s->job, &batch_ms);
    const double pass_s = s_between(pass_start, Clock::now());
    (traced ? traced_s : untraced_s) += pass_s;
    pass_rate.push_back(static_cast<double>(n) / pass_s);
    traced_images += traced ? n : 0;
    if (pass == 0) first_pass = predicted;
    // One operation per batch: its argmaxes must match the first pass.
    for (std::int64_t begin = 0; begin < n; begin += kBatch) {
      const auto b = static_cast<std::ptrdiff_t>(begin);
      const auto e = static_cast<std::ptrdiff_t>(std::min(begin + kBatch, n));
      report.op(std::equal(predicted.begin() + b, predicted.begin() + e, first_pass.begin() + b));
    }
  }
  report.gate(report.failed() == 0, "bulk: per-image argmax identical on every pass");

  // Accuracy on the fixed evaluation set, outside the timed window.
  tracer.set_recording(false);
  const std::vector<std::int64_t> eval_predicted = classify_all(tracer, *s, s->eval, nullptr);
  tracer.set_recording(true);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < eval_predicted.size(); ++i) {
    correct += eval_predicted[i] == s->eval.labels[i] ? 1 : 0;
  }
  const double top1 = static_cast<double>(correct) / static_cast<double>(s->eval.size());
  report.gate(top1 >= kMinTop1, "bulk: top1_acc above the broken-pipeline floor");

  // Median over passes, so a pass slowed by a noisy host counts once.
  report.metric("images_per_s", median(pass_rate), "1/s");
  report.metric("lat_p50_ms", median(batch_ms), "ms");
  report.metric("job.lat_p90_ms", percentile(batch_ms, 0.9), "ms");
  report.metric("top1_acc", top1, "share");

  const hw::NshdCensus census = hw::nshd_census(s->zoo, kCut, kDim,
                                                s->nshd->config().manifold_features, kClasses);
  report.metric("nn.qplan.int8_layers", static_cast<double>(s->qplan->int8_layers()), "count");
  report.metric("nn.qplan.fallback_layers", static_cast<double>(s->qplan->fallback_layers()),
                "count");
  report.metric("nn.qplan.workspace_peak_mb",
                static_cast<double>(s->qplan->peak_workspace_bytes()) / 1e6, "MB");
  report_sizes(report, census);
  if (!tracer.enabled()) return;

  report.metric("nn.qplan.run_batch_ms", median(tracer.durations_ms("nn.qplan.run_batch")), "ms");
  report.metric("nn.qplan.gmacs",
                static_cast<double>(traced_images) * static_cast<double>(census.prefix_macs) /
                    (tracer.total_s("nn.qplan.run_batch") * 1e9),
                "GMAC/s");
  report_head(tracer, report, "bulk.batch", census, static_cast<double>(kBatch));
  report.metric("bulk.batch_self_ms", median(tracer.self_ms("bulk.batch")), "ms");
  const double untraced_images = static_cast<double>(passes * n - traced_images);
  report.metric("trace.overhead_share",
                1.0 - (static_cast<double>(traced_images) / traced_s) / (untraced_images / untraced_s),
                "share");
  probe_plan(tracer, report, *s->plan, s->job.images, census.prefix_macs);
}

}  // namespace perfbench
