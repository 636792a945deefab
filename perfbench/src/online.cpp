// online_b0_d10k: class-bank writes beside reads.
//
// efficientnet_b0s cut 7 (f32, D = 10000, K = 100) serves open-loop reads
// at 100 req/s while one learner thread calls Engine::update_online every
// 100 ms.  Each update runs one MASS epoch over a 64-sample DriftStream
// (kShift) chunk on a copy of the 4 MB bank, checks the guard holdout, and
// publishes; reads score whichever version is published.  The 16 stream
// chunks are symbolized once during set-up and cycled.  The update list is
// fixed, so the final bank and its accuracy are exact; the run seed drives
// the reads' arrival times and images.  This is the only workload that runs
// MBConv/SE/SiLU.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/feature_extractor.hpp"
#include "data/drift_stream.hpp"
#include "data/synth_cifar.hpp"
#include "hd/versioned_bank.hpp"
#include "models/zoo.hpp"
#include "serve/engine.hpp"
#include "traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nshd;

constexpr std::size_t kCut = 7;
constexpr std::int64_t kClasses = 100;
constexpr std::int64_t kDim = 10000;
constexpr std::int64_t kMaxBatch = 32;
constexpr std::int64_t kTrainPerClass = 5;    // 500 fixed head-training images
constexpr std::int64_t kHoldoutPerClass = 2;  // fixed 200-image guard holdout
constexpr std::int64_t kChunks = 16;
constexpr std::int64_t kChunkSize = 64;
constexpr double kReadRate = 100.0;
constexpr double kUpdatePeriodMs = 100.0;
// Share of --seconds the read/update window lasts.
constexpr double kWindowShare = 1.0;
constexpr double kSloMs = 50.0;
constexpr double kMinTop1 = 0.05;  // chance is 0.01
constexpr const char* kModel = "efficientnet_b0s";
// Read generator and learner, plus two engine workers.
constexpr Budgets kBudgets{kSetupBudget, {/*callers=*/2, /*pool=*/1, /*engine_workers=*/2}};

struct State {
  data::Dataset train;
  data::Dataset holdout_images;  // guard holdout; reads carry these images
  std::vector<std::vector<hd::Hypervector>> chunks;
  std::vector<std::vector<std::int64_t>> chunk_labels;
  std::vector<hd::Hypervector> holdout;
  hd::UpdateGuard guard;
  std::unique_ptr<hd::HdClassifier> initial;  // bank before any update
  const core::NshdModel* nshd = nullptr;
  nn::InferencePlan* plan = nullptr;
  hw::NshdCensus census;
  std::unique_ptr<serve::Engine> engine;
};

hd::MassConfig mass_config() {
  hd::MassConfig config;
  config.learning_rate = 0.02f;
  config.epochs = 1;
  return config;
}

std::unique_ptr<State> set_up(std::uint64_t seed, SetupPhases& phases) {
  auto s = std::make_unique<State>();
  data::DriftStreamConfig stream_config;
  std::vector<data::Dataset> chunk_images;
  timed(phases.data, [&] {
    s->train = data::make_synth_cifar(world(kClasses, kTrainPerClass, true), 0);
    s->holdout_images = data::make_synth_cifar(world(kClasses, kHoldoutPerClass, true), 1);
    stream_config.base = world(kClasses, 1, true);
    stream_config.mode = data::DriftMode::kShift;
    stream_config.steps = kChunks;
    stream_config.chunk_size = kChunkSize;
    stream_config.seed = kWorldSeed;
    const data::DriftStream stream(stream_config);
    for (std::int64_t c = 0; c < kChunks; ++c) {
      data::DriftChunk chunk = stream.chunk(c);
      s->chunk_labels.push_back(chunk.data.labels);
      chunk_images.push_back(std::move(chunk.data));
    }
  });
  std::unique_ptr<serve::ModelBundle> bundle = timed(phases.model, [&] {
    core::NshdConfig config;
    config.dim = kDim;
    config.epochs = 3;
    config.use_kd = false;
    config.train_manifold = false;
    config.seed = kHeadSeed;
    return std::make_unique<serve::ModelBundle>(
        models::make_efficientnet_b0s(kClasses, kModelSeed), kCut, config, kMaxBatch);
  });
  const core::ExtractedFeatures train = timed(phases.extract, [&] {
    return core::extract_features(bundle->plan, s->train, kMaxBatch);
  });
  timed(phases.train, [&] { bundle->nshd.train(train, s->train.labels, nullptr); });
  s->census = hw::nshd_census(bundle->zoo, kCut, kDim, bundle->nshd.config().manifold_features,
                              kClasses);
  timed(phases.extract, [&] {
    s->holdout = bundle->nshd.symbolize_all(
        core::extract_features(bundle->plan, s->holdout_images, kMaxBatch));
    for (const data::Dataset& chunk : chunk_images) {
      s->chunks.push_back(
          bundle->nshd.symbolize_all(core::extract_features(bundle->plan, chunk, kMaxBatch)));
    }
  });
  timed(phases.register_, [&] {
    use_pool(kBudgets.job.pool);
    s->guard.holdout = s->holdout;
    s->guard.holdout_labels = s->holdout_images.labels;
    s->initial = std::make_unique<hd::HdClassifier>(bundle->nshd.classifier());
    bundle->enable_online(s->guard);
    s->nshd = &bundle->nshd;
    s->plan = &bundle->plan;
    serve::EngineConfig config;
    config.workers = 2;
    config.max_batch = kMaxBatch;
    config.batch_deadline_ms = 2.0;
    s->engine = std::make_unique<serve::Engine>(config);
    s->engine->register_model(kModel, std::move(bundle));
    Target target{s->engine.get(), kModel, &s->holdout_images.images, nullptr, kClasses};
    Tracer quiet(false);
    closed_loop(target, request_images(seed, s->holdout_images.size(), 64), 32, quiet, "warm");
  });
  return s;
}

}  // namespace

void run_online(const Options& options, Report& report, Tracer& tracer) {
  const std::unique_ptr<State> s =
      repeated_setup<State>(kSetupReps, kBudgets, report,
                            [&](SetupPhases& phases) { return set_up(options.seed, phases); });
  const Target target{s->engine.get(), kModel, &s->holdout_images.images, nullptr, kClasses};
  const double window_ms = kWindowShare * options.seconds * 1e3;
  const auto updates = static_cast<std::int64_t>(window_ms / kUpdatePeriodMs);
  const auto reads = static_cast<std::int64_t>(kReadRate * window_ms / 1e3);

  std::vector<double> update_ms(static_cast<std::size_t>(updates), 0.0);
  std::vector<serve::UpdateStatus> update_status(static_cast<std::size_t>(updates));
  const Clock::time_point start = Clock::now();
  // The learner records a failed update (kShutdown) rather than let an
  // exception leave the thread; jthread joins it on every path.
  std::jthread learner([&] {
    const hd::MassConfig mass = mass_config();
    for (std::int64_t u = 0; u < updates; ++u) {
      std::this_thread::sleep_until(start + std::chrono::milliseconds(
                                                static_cast<std::int64_t>(u * kUpdatePeriodMs)));
      const std::size_t c = static_cast<std::size_t>(u % kChunks);
      const Clock::time_point t0 = Clock::now();
      try {
        Tracer::Scope span(tracer, "serve.update_online", u);
        update_status[static_cast<std::size_t>(u)] =
            s->engine->update_online(kModel, s->chunks[c], s->chunk_labels[c], mass);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "update %lld threw: %s\n", static_cast<long long>(u), error.what());
        update_status[static_cast<std::size_t>(u)] = serve::UpdateStatus::kShutdown;
      }
      update_ms[static_cast<std::size_t>(u)] = ms_between(t0, Clock::now());
    }
  });
  const Phase read = open_loop(target, poisson_offsets_ms(derive_seed(options.seed, 10), kReadRate, reads),
                               request_images(derive_seed(options.seed, 11), s->holdout_images.size(), reads),
                               tracer, "serve.phase.online");
  learner.join();

  std::int64_t updates_ok = 0;
  for (const serve::UpdateStatus status : update_status) {
    const bool ok = status == serve::UpdateStatus::kOk;
    updates_ok += ok ? 1 : 0;
    report.op(ok);
  }
  report.ops(static_cast<std::int64_t>(read.outcomes.size()), read.failed());
  report.gate(read.failed() == 0, "online: every read kOk with K scores");
  report.gate(updates_ok == updates, "online: every update published");

  // Final published bank, scored on the guard holdout set outside the window.
  const hd::VersionedBank& bank = *s->engine->bundle(kModel)->online;
  const hd::VersionedBank::Snapshot final_bank = bank.snapshot();
  const double top1 = final_bank->bank.evaluate(s->holdout, s->holdout_images.labels,
                                                s->nshd->config().similarity);
  report.gate(final_bank->bank.num_classes() == kClasses, "online: final bank keeps K classes");
  report.gate(final_bank->version == static_cast<std::uint64_t>(updates_ok),
              "online: one published version per successful update");
  report.gate(top1 >= kMinTop1, "online: top1_acc above the broken-pipeline floor");

  const std::vector<double> lat = read.latencies_ms();
  // Samples learned per second of learner busy time, from the median update.
  report.metric("images_per_s", static_cast<double>(kChunkSize) / (median(update_ms) / 1e3), "1/s");
  report.metric("lat_p50_ms", median(lat), "ms");
  report.metric("job.lat_p90_ms", percentile(lat, 0.9), "ms");
  report.metric("top1_acc", top1, "share");

  report.metric("serve.slo_share.online", read.slo_share(kSloMs), "share");
  report.metric("serve.queue_ms.p50.online", median(read.queue_ms()), "ms");
  report.metric("serve.exec_ms.p50.online", median(read.exec_ms()), "ms");
  report.metric("serve.gen_late_ms.p99", percentile(read.late_ms(), 0.99), "ms");
  report.metric("hd.bank.update_ms", median(update_ms), "ms");
  report.metric("hd.bank.update_ms.p90", percentile(update_ms, 0.9), "ms");
  report.metric("hd.bank.publish_share",
                static_cast<double>(updates_ok) / static_cast<double>(updates), "share");
  report.metric("hd.bank.rolled_back",
                static_cast<double>(s->engine->stats().updates_rolled_back), "count");
  report_sizes(report, s->census);
  if (!tracer.enabled()) return;

  // The same MASS epochs on a bench-owned bank with the same guard, called
  // directly, alternating with engine updates on a quiet engine: the update
  // cost with and without the engine around it.
  hd::VersionedBank direct(*s->initial);
  direct.set_guard(s->guard);
  const hd::MassConfig mass = mass_config();
  for (std::int64_t c = 0; c < kChunks; ++c) {
    const auto chunk = static_cast<std::size_t>(c);
    {
      Tracer::Scope span(tracer, "serve.update_online.quiet", c);
      s->engine->update_online(kModel, s->chunks[chunk], s->chunk_labels[chunk], mass);
    }
    Tracer::Scope span(tracer, "hd.bank.mass_epoch", c);
    direct.mass_epoch(s->chunks[chunk], s->chunk_labels[chunk], mass);
  }
  const double mass_ms = median(tracer.durations_ms("hd.bank.mass_epoch"));
  report.metric("hd.bank.mass_epoch_ms", mass_ms, "ms");
  report.metric("serve.update_overhead_ms",
                median(tracer.durations_ms("serve.update_online.quiet")) - mass_ms, "ms");
  probe_plan(tracer, report, *s->plan, s->holdout_images.images, s->census.prefix_macs);
  core::ExtractedFeatures features = feature_buffer(*s->plan, kMaxBatch);
  for (std::int64_t b = 0; b + kMaxBatch <= s->holdout_images.size(); b += kMaxBatch) {
    Tracer::Scope span(tracer, "online.direct_batch", b);
    classify(tracer, "nn.plan.run_batch", *s->plan, *s->nshd,
             image_rows(s->holdout_images.images, b, kMaxBatch), features);
  }
  report_head(tracer, report, "online.direct_batch", s->census, static_cast<double>(kMaxBatch));
}

}  // namespace perfbench
