// Serving throughput: dynamic batching vs one request per forward.
//
// This harness measures what serve::Engine's batch former buys — request
// throughput under concurrent traffic.  For each zoo model it trains one
// NSHD head, then offers the same closed-loop load (S client threads, each
// submit -> wait -> repeat) to two serving configurations:
//
//   warm-single  serve::Engine with max_batch = 1: warm plans and pooled
//                workspaces, but every request is still its own forward.
//   batched      serve::Engine with max_batch = B = 8: the batch former
//                coalesces concurrent requests into one planned forward
//                plus one batched HD pass.
//
// S defaults to 2 x B x workers, so every batched worker can find a full
// batch waiting while the other one runs; with S <= B all in-flight
// requests fit one batch and only one worker is ever busy.  Both modes
// serve identical in-flight load, so by Little's law QPS and latency
// differences come from the compute path alone.  Responses are known
// bitwise-identical between the two engine modes (tested in serve_test), so
// this bench measures speed only.  The batching margin scales with core
// count: on a single-core host it comes purely from amortizing dispatch and
// weight-streaming overheads; with idle cores the shared pool widens it
// further.
//
// Results land on stdout as a table and in BENCH_serving.json (one record
// per model x mode) for the driver/CI to scrape.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "serve/engine.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace nshd;

/// The batched engine's max_batch.
constexpr int kMaxBatch = 8;

std::unique_ptr<serve::ModelBundle> trained_bundle(const std::string& name,
                                                   std::size_t cut,
                                                   const data::Dataset& train,
                                                   std::int64_t max_batch) {
  core::NshdConfig config;
  config.dim = 512;
  config.manifold_features = 32;
  config.epochs = 2;
  config.use_kd = false;
  config.train_manifold = false;
  auto bundle = std::make_unique<serve::ModelBundle>(
      models::make_model(name, train.num_classes, /*seed=*/7), cut, config,
      max_batch);
  const core::ExtractedFeatures features =
      core::extract_features(bundle->plan, train, max_batch);
  bundle->nshd.train(features, train.labels, /*teacher_logits=*/nullptr);
  return bundle;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct ModeResult {
  std::string mode;
  std::int64_t max_batch = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;           // queue-full sheds
  std::uint64_t rejected_overload = 0;  // admission-control sheds
  std::uint64_t timed_out = 0;
  std::uint64_t internal_errors = 0;
  std::uint64_t degraded = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_batch = 0.0;
};

/// Runs a closed loop of `submitters` threads against `engine` for
/// `seconds`, after a short warm-up; collects per-request total latency.
ModeResult drive(serve::Engine& engine, const std::string& model_id,
                 const data::Dataset& requests, const std::string& mode,
                 int submitters, double seconds) {
  // Warm-up: fill the plan's workspace pool and fault in code paths.
  for (int i = 0; i < submitters; ++i) {
    std::future<serve::Response> future;
    if (engine.submit(model_id, requests.sample(i % requests.size()), &future) ==
        serve::SubmitStatus::kOk)
      (void)future.get();
  }
  const serve::EngineStats before = engine.stats();

  std::mutex latency_mutex;
  std::vector<double> latencies;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  util::Stopwatch watch;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> local;
      std::int64_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        std::future<serve::Response> future;
        if (engine.submit(model_id, requests.sample(i++ % requests.size()),
                          &future) != serve::SubmitStatus::kOk)
          continue;  // typed rejection; closed loop just retries
        local.push_back(future.get().total_ms);
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  while (watch.seconds() < seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  const double elapsed = watch.seconds();
  const serve::EngineStats after = engine.stats();

  ModeResult result;
  result.mode = mode;
  result.max_batch = engine.config().max_batch;
  result.completed = after.completed - before.completed;
  result.rejected = (after.rejected_full - before.rejected_full);
  result.rejected_overload = after.rejected_overload - before.rejected_overload;
  result.timed_out = after.timed_out - before.timed_out;
  result.internal_errors = after.internal_errors - before.internal_errors;
  result.degraded = after.degraded - before.degraded;
  result.seconds = elapsed;
  result.qps = static_cast<double>(result.completed) / elapsed;
  const std::uint64_t batches = after.batches - before.batches;
  result.mean_batch = batches == 0 ? 0.0
                                   : static_cast<double>(result.completed) /
                                         static_cast<double>(batches);
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = percentile(latencies, 0.50);
  result.p95_ms = percentile(latencies, 0.95);
  result.p99_ms = percentile(latencies, 0.99);
  result.p999_ms = percentile(latencies, 0.999);
  return result;
}

struct Record {
  std::string model;
  std::size_t cut = 0;
  ModeResult warm_single;
  ModeResult batched;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int workers = args.get_int("workers", 2);
  const int submitters = args.get_int("submitters", 2 * kMaxBatch * workers);
  const int reps = args.get_int("reps", 3);
  const double seconds = args.get_int("duration_ms", 2000) / 1000.0;
  const std::string json_path = args.get("json", "BENCH_serving.json");

  data::SynthCifarConfig data_config;
  data_config.num_classes = 4;
  data_config.samples_per_class = 24;  // 96 train images, reused as traffic
  const data::Dataset dataset = data::make_synth_cifar(data_config);

  std::vector<std::string> names = {"mobilenetv2s"};
  if (args.has("models")) names = {args.get("models", "")};
  if (args.has("all")) names = models::zoo_model_names();

  util::Table table({"model", "cut", "mode", "max_batch", "qps", "p50 ms",
                     "p95 ms", "p99 ms", "p99.9 ms", "mean batch", "shed",
                     "vs warm-single"});
  std::vector<Record> records;

  for (const std::string& name : names) {
    // Serve at the deepest paper cut: it is the accuracy-preserving
    // deployment point, and its trailing layers (tiny spatial extent, wide
    // channels) are weight-streaming-bound — the regime where batching
    // amortizes memory traffic rather than relying on idle cores.
    const models::ZooModel probe = models::make_model(name, 4, /*seed=*/7);
    const std::size_t cut = probe.paper_cut_layers.back();

    // Both servers stay alive across reps; reps interleave the modes so slow
    // drifts on shared hosts hit both equally, and each mode reports its
    // best sustained rep (the same best-of discipline as
    // bench_inference_throughput).
    serve::EngineConfig warm_config;
    warm_config.workers = workers;
    warm_config.max_batch = 1;
    warm_config.batch_deadline_ms = 0.0;  // nothing to coalesce at batch 1
    serve::Engine warm_engine(warm_config);
    warm_engine.register_model(name, trained_bundle(name, cut, dataset, 1));

    serve::EngineConfig batch_config;
    batch_config.workers = workers;
    batch_config.max_batch = kMaxBatch;
    batch_config.batch_deadline_ms = 2.0;
    serve::Engine batch_engine(batch_config);
    batch_engine.register_model(name, trained_bundle(name, cut, dataset, kMaxBatch));

    Record record;
    record.model = name;
    record.cut = cut;
    for (int rep = 0; rep < reps; ++rep) {
      const ModeResult warm =
          drive(warm_engine, name, dataset, "warm-single", submitters, seconds);
      if (rep == 0 || warm.qps > record.warm_single.qps) record.warm_single = warm;
      const ModeResult batched =
          drive(batch_engine, name, dataset, "batched", submitters, seconds);
      if (rep == 0 || batched.qps > record.batched.qps) record.batched = batched;
    }
    records.push_back(record);

    const double speedup = record.batched.qps / record.warm_single.qps;
    for (const ModeResult* mode : {&record.warm_single, &record.batched}) {
      table.add_row({name, util::cell(static_cast<int>(cut)), mode->mode,
                     util::cell(static_cast<int>(mode->max_batch)),
                     util::cell(mode->qps, 1), util::cell(mode->p50_ms, 2),
                     util::cell(mode->p95_ms, 2), util::cell(mode->p99_ms, 2),
                     util::cell(mode->p999_ms, 2),
                     util::cell(mode->mean_batch, 1),
                     util::cell(static_cast<int>(mode->rejected +
                                                 mode->rejected_overload)),
                     mode == &record.batched ? util::cell(speedup, 2) + "x" : ""});
    }
  }

  std::printf(
      "\n== serving throughput: %d submitters (closed loop), %d workers, "
      "batched max_batch %d, %.1fs per mode ==\n%s",
      submitters, workers, kMaxBatch, seconds, table.to_string().c_str());

  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(out,
                 "{\n  \"submitters\": %d,\n  \"workers\": %d,\n"
                 "  \"max_batch\": %d,\n  \"cores\": %u,\n"
                 "  \"duration_s\": %.2f,\n  \"results\": [\n",
                 submitters, workers, kMaxBatch,
                 std::thread::hardware_concurrency(), seconds);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      const char* sep = i + 1 < records.size() ? "," : "";
      std::fprintf(out, "    {\"model\": \"%s\", \"cut\": %zu, \"modes\": [\n",
                   r.model.c_str(), r.cut);
      for (const ModeResult* m : {&r.warm_single, &r.batched}) {
        std::fprintf(out,
                     "      {\"mode\": \"%s\", \"max_batch\": %lld, "
                     "\"qps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
                     "\"p99_ms\": %.3f, \"p999_ms\": %.3f, "
                     "\"mean_batch\": %.2f, \"completed\": %llu, "
                     "\"rejected\": %llu, \"rejected_overload\": %llu, "
                     "\"timed_out\": %llu, \"internal_errors\": %llu, "
                     "\"degraded\": %llu}%s\n",
                     m->mode.c_str(), static_cast<long long>(m->max_batch),
                     m->qps, m->p50_ms, m->p95_ms, m->p99_ms, m->p999_ms,
                     m->mean_batch,
                     static_cast<unsigned long long>(m->completed),
                     static_cast<unsigned long long>(m->rejected),
                     static_cast<unsigned long long>(m->rejected_overload),
                     static_cast<unsigned long long>(m->timed_out),
                     static_cast<unsigned long long>(m->internal_errors),
                     static_cast<unsigned long long>(m->degraded),
                     m == &r.batched ? "" : ",");
      }
      std::fprintf(out, "    ], \"batched_over_warm_single_qps\": %.3f}%s\n",
                   r.batched.qps / r.warm_single.qps, sep);
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not open %s for writing\n",
                 json_path.c_str());
  }
  return 0;
}
