// serve_mobilenet_open: open-loop request traffic through serve::Engine.
//
// mobilenetv2s cut 17 (f32, D = 3000, K = 10): the CNN is almost all of the
// busy time, so this is the control workload for HD-head changes.  One
// generator thread sends Poisson arrivals at two fixed rates, `light`
// (100 req/s, batches of about one request, where the batch former's
// deadline is a large share of latency) and `heavy` (300 req/s); then a
// `sat` phase keeps 64 requests in flight to fill batches to 32.
#include <memory>
#include <string>

#include "common.hpp"
#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "serve/engine.hpp"
#include "traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nshd;

constexpr std::size_t kCut = 17;
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kDim = 3000;
constexpr std::int64_t kMaxBatch = 32;
constexpr std::int64_t kTrainPerClass = 50;  // 500 fixed head-training images
constexpr std::int64_t kPoolPerClass = 50;   // the fixed 500-image evaluation set
constexpr double kLightRate = 100.0;
constexpr double kHeavyRate = 300.0;
constexpr int kSatInFlight = 64;
constexpr int kSatRounds = 4;
// Share of --seconds given to each phase; the sat phase's request count is
// sized from its rate on a 4-core x86-64 host at the default SSE2 build.
constexpr double kLightShare = 0.2;
constexpr double kHeavyShare = 0.45;
constexpr double kSatShare = 0.3;
constexpr double kSatNominalRate = 750.0;
constexpr double kSloMs = 50.0;
constexpr double kMinTop1 = 0.15;  // chance is 0.1
constexpr const char* kModel = "mobilenetv2s";
constexpr Budgets kBudgets{kSetupBudget, {/*callers=*/1, /*pool=*/1, /*engine_workers=*/2}};

struct State {
  data::Dataset train;
  data::Dataset pool;     // requests carry these images; top1_acc is scored on them
  tensor::Tensor direct;  // [pool, K] direct-path scores
  nn::InferencePlan* plan = nullptr;
  const core::NshdModel* nshd = nullptr;
  hw::NshdCensus census;
  std::unique_ptr<serve::Engine> engine;
};

std::unique_ptr<State> set_up(std::uint64_t seed, SetupPhases& phases) {
  auto s = std::make_unique<State>();
  timed(phases.data, [&] {
    s->train = data::make_synth_cifar(world(kClasses, kTrainPerClass, true), 0);
    s->pool = data::make_synth_cifar(world(kClasses, kPoolPerClass, true), 1);
  });
  std::unique_ptr<serve::ModelBundle> bundle = timed(phases.model, [&] {
    core::NshdConfig config;
    config.dim = kDim;
    config.epochs = 3;
    config.use_kd = false;
    config.train_manifold = false;
    config.seed = kHeadSeed;
    return std::make_unique<serve::ModelBundle>(models::make_mobilenetv2s(kClasses, kModelSeed),
                                                kCut, config, kMaxBatch);
  });
  const core::ExtractedFeatures train = timed(phases.extract, [&] {
    return core::extract_features(bundle->plan, s->train, kMaxBatch);
  });
  timed(phases.train, [&] { bundle->nshd.train(train, s->train.labels, nullptr); });
  s->census = hw::nshd_census(bundle->zoo, kCut, kDim, bundle->nshd.config().manifold_features,
                              kClasses);
  timed(phases.extract, [&] {
    const core::ExtractedFeatures pool =
        core::extract_features(bundle->plan, s->pool, kMaxBatch);
    s->direct = bundle->nshd.classifier().similarities_all(bundle->nshd.symbolize_all(pool),
                                                           bundle->nshd.config().similarity);
  });
  timed(phases.register_, [&] {
    use_pool(kBudgets.job.pool);
    s->plan = &bundle->plan;
    s->nshd = &bundle->nshd;
    serve::EngineConfig config;
    config.workers = 2;
    config.max_batch = kMaxBatch;
    config.batch_deadline_ms = 2.0;
    s->engine = std::make_unique<serve::Engine>(config);
    s->engine->register_model(kModel, std::move(bundle));
    // Warm the plan's workspace leases on both workers.
    Target target{s->engine.get(), kModel, &s->pool.images, &s->direct, kClasses};
    Tracer quiet(false);
    closed_loop(target, request_images(seed, s->pool.size(), 64), 32, quiet, "warm");
  });
  return s;
}

}  // namespace

void run_serve(const Options& options, Report& report, Tracer& tracer) {
  const std::unique_ptr<State> s =
      repeated_setup<State>(kSetupReps, kBudgets, report,
                            [&](SetupPhases& phases) { return set_up(options.seed, phases); });
  const Target target{s->engine.get(), kModel, &s->pool.images, &s->direct, kClasses};
  const std::int64_t pool = s->pool.size();
  const auto count = [&](double rate, double share) {
    return static_cast<std::int64_t>(rate * share * options.seconds);
  };
  const std::int64_t light_n = count(kLightRate, kLightShare);
  const std::int64_t heavy_n = count(kHeavyRate, kHeavyShare);
  const std::int64_t sat_n = count(kSatNominalRate, kSatShare);
  const Phase light = open_loop(target, poisson_offsets_ms(derive_seed(options.seed, 10), kLightRate, light_n),
                                request_images(derive_seed(options.seed, 11), pool, light_n), tracer,
                                "serve.phase.light");
  const Phase heavy = open_loop(target, poisson_offsets_ms(derive_seed(options.seed, 12), kHeavyRate, heavy_n),
                                request_images(derive_seed(options.seed, 13), pool, heavy_n), tracer,
                                "serve.phase.heavy");
  // The sat phase runs in rounds, each one closed loop.  Its rate is the
  // median round's steady-state rate (ramp-up and drain left out), so a
  // round slowed by a noisy host counts once.  A traced run records spans on
  // odd rounds only; the even rounds give the tracing overhead.
  std::vector<Phase> sat;
  std::vector<double> sat_rate, traced_rate, untraced_rate;
  for (int round = 0; round < kSatRounds; ++round) {
    tracer.set_recording(round % 2 == 1);
    sat.push_back(closed_loop(
        target, request_images(derive_seed(options.seed, 14 + round), pool, sat_n / kSatRounds),
        kSatInFlight, tracer, "serve.phase.sat"));
    const double rate = sat.back().steady_rate();
    sat_rate.push_back(rate);
    (round % 2 == 1 ? traced_rate : untraced_rate).push_back(rate);
  }
  tracer.set_recording(true);

  for (const Phase* phase : {&light, &heavy}) {
    report.ops(static_cast<std::int64_t>(phase->outcomes.size()), phase->failed());
  }
  std::vector<double> sat_exec;
  for (const Phase& round : sat) {
    report.ops(static_cast<std::int64_t>(round.outcomes.size()), round.failed());
    const std::vector<double> exec = round.exec_ms();
    sat_exec.insert(sat_exec.end(), exec.begin(), exec.end());
  }
  report.gate(report.failed() == 0,
              "serve: every request kOk with scores bitwise equal to the direct path");

  const std::vector<std::int64_t> predicted = argmax_rows(s->direct);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < pool; ++i) {
    correct += predicted[static_cast<std::size_t>(i)] == s->pool.labels[static_cast<std::size_t>(i)];
  }
  const double top1 = static_cast<double>(correct) / static_cast<double>(pool);
  report.gate(top1 >= kMinTop1, "serve: top1_acc above the broken-pipeline floor");

  const std::vector<double> heavy_lat = heavy.latencies_ms();
  // Saturated throughput moved by 20-35% between runs of the same code on a
  // shared host (batch-32 activations contend for cache), so the steady
  // end-to-end rate is capacity at the heavy operating point; sat_rps stays
  // a per-layer figure.
  report.metric("images_per_s", heavy.busy_rate(), "1/s");
  report.metric("serve.sat_rps", median(sat_rate), "1/s");
  report.metric("lat_p50_ms", median(heavy_lat), "ms");
  report.metric("job.lat_p90_ms", percentile(heavy_lat, 0.9), "ms");
  report.metric("top1_acc", top1, "share");

  report.metric("serve.lat_p50_ms.light", median(light.latencies_ms()), "ms");
  report.metric("serve.slo_share.heavy", heavy.slo_share(kSloMs), "share");
  report.metric("serve.queue_ms.p50.light", median(light.queue_ms()), "ms");
  report.metric("serve.queue_ms.p50.heavy", median(heavy.queue_ms()), "ms");
  report.metric("serve.queue_ms.p99.heavy", percentile(heavy.queue_ms(), 0.99), "ms");
  report.metric("serve.exec_ms.p50.light", median(light.exec_ms()), "ms");
  report.metric("serve.exec_ms.p50.heavy", median(heavy.exec_ms()), "ms");
  report.metric("serve.exec_ms.p50.sat", median(sat_exec), "ms");
  report.metric("serve.batch_mean.light", light.batch_mean(), "count");
  report.metric("serve.batch_mean.heavy", heavy.batch_mean(), "count");
  std::vector<double> sat_batch;
  for (const Phase& round : sat) sat_batch.push_back(round.batch_mean());
  report.metric("serve.batch_mean.sat", mean(sat_batch), "count");
  report.metric("serve.deadline_flush_share.light", light.deadline_flush_share(), "share");
  report.metric("serve.deadline_flush_share.heavy", heavy.deadline_flush_share(), "share");
  std::vector<double> late = light.late_ms();
  const std::vector<double> heavy_late = heavy.late_ms();
  late.insert(late.end(), heavy_late.begin(), heavy_late.end());
  report.metric("serve.gen_late_ms.p99", percentile(late, 0.99), "ms");
  const serve::EngineStats stats = s->engine->stats();
  report.metric("serve.shed_share",
                static_cast<double>(stats.rejected_full + stats.rejected_overload) /
                    static_cast<double>(stats.submitted + stats.rejected_full + stats.rejected_overload),
                "share");

  const hw::NshdCensus& census = s->census;
  report_sizes(report, census);
  if (!tracer.enabled()) return;

  report.metric("trace.overhead_share", 1.0 - median(traced_rate) / median(untraced_rate),
                "share");
  probe_plan(tracer, report, *s->plan, s->pool.images, census.prefix_macs);
  // Direct-path head timing on the request pool, batch by batch.
  core::ExtractedFeatures features = feature_buffer(*s->plan, kMaxBatch);
  for (std::int64_t b = 0; b + kMaxBatch <= pool; b += kMaxBatch) {
    Tracer::Scope span(tracer, "serve.direct_batch", b);
    classify(tracer, "nn.plan.run_batch", *s->plan, *s->nshd,
             image_rows(s->pool.images, b, kMaxBatch), features);
  }
  report_head(tracer, report, "serve.direct_batch", census, static_cast<double>(kMaxBatch));
}

}  // namespace perfbench
