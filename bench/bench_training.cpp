// Training throughput of the zero-alloc training path (TrainingPlan +
// BatchPipeline).
//
// For every zoo model this harness first proves the determinism gates —
// runs from the same seed must finish with bitwise identical weights at 1
// thread and at the host's thread count (synchronous feed), and at
// NSHD_THREADS 4 and 8 with the prefetch pipeline on — and only then times
// full runs (best-of-reps, fresh model each rep) as epochs/sec at the host's
// thread count with prefetch enabled.  Any parity break fails the bench.
//
// Results land on stdout as a table and in BENCH_training.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/pipeline.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/train_plan.hpp"
#include "nn/trainer.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nshd;

/// One full training run on a fresh same-seed model; returns the final
/// state bank (params + running stats) for the parity gates.
std::vector<tensor::Tensor> train_once(const std::string& name,
                                       const data::Dataset& train,
                                       nn::TrainConfig config, int threads) {
  util::set_thread_count(threads);
  models::ZooModel model = models::make_model(name, train.num_classes,
                                              /*seed=*/7);
  config.learning_rate =
      std::min(config.learning_rate, model.suggested_learning_rate);
  nn::train_classifier(model.net, train, config);
  std::vector<tensor::Tensor*> ptrs;
  model.net.append_state(ptrs);
  std::vector<tensor::Tensor> out;
  out.reserve(ptrs.size());
  for (const tensor::Tensor* t : ptrs) out.push_back(*t);
  return out;
}

bool states_bitwise_equal(const std::vector<tensor::Tensor>& a,
                          const std::vector<tensor::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].numel() != b[i].numel()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) != 0)
      return false;
  }
  return true;
}

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.seconds());
  }
  return best;
}

struct Record {
  std::string model;
  double planned_eps = 0.0;  // epochs/sec @ host threads
  std::size_t planned_bytes = 0;
  std::size_t peak_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::int64_t epochs = args.get_int("epochs", 3);
  const std::int64_t batch = args.get_int("batch", 32);
  const int reps = args.get_int("reps", 3);
  const std::string json_path = args.get("json", "BENCH_training.json");

  data::SynthCifarConfig data_config;
  data_config.num_classes = 4;
  data_config.samples_per_class = args.get_int("per_class", 24);  // 96 samples
  const data::Dataset train = data::make_synth_cifar(data_config);

  nn::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch;
  config.target_train_accuracy = 0.0f;  // run every epoch; we time full runs
  config.seed = 7;

  const std::vector<std::string> names = nshd::bench::models_from_args(args);
  const int host_threads = util::thread_count();

  util::Table table({"model", "planned ep/s", "planned ws KiB",
                     "peak ws KiB"});
  std::vector<Record> records;
  bool parity_failure = false;

  for (const std::string& name : names) {
    // Gate 1: the accumulation order is fixed, so 1 thread and the host's
    // threads must finish with bitwise identical weights.  Gate 2: the same
    // holds at 4 and 8 threads with the prefetch pipeline feeding the steps.
    nn::TrainConfig gate = config;
    gate.prefetch_depth = 0;
    const std::vector<tensor::Tensor> planned_w1 =
        train_once(name, train, gate, /*threads=*/1);
    const std::vector<tensor::Tensor> planned_wh =
        train_once(name, train, gate, host_threads);
    if (!states_bitwise_equal(planned_w1, planned_wh)) {
      std::fprintf(stderr, "FATAL: %s weights differ at 1 vs %d threads\n",
                   name.c_str(), host_threads);
      parity_failure = true;
      continue;
    }
    gate.prefetch_depth = 2;  // the pipeline must not disturb the stream
    for (const int threads : {4, 8}) {
      const std::vector<tensor::Tensor> planned_wt =
          train_once(name, train, gate, threads);
      if (!states_bitwise_equal(planned_w1, planned_wt)) {
        std::fprintf(stderr, "FATAL: %s planned weights differ at %d threads\n",
                     name.c_str(), threads);
        parity_failure = true;
      }
    }
    if (parity_failure) continue;

    // Timed runs: host threads + prefetch.
    nn::TrainConfig planned_cfg = config;
    planned_cfg.prefetch_depth = 2;
    const double planned_s = best_seconds(reps, [&] {
      train_once(name, train, planned_cfg, host_threads);
    });
    util::set_thread_count(host_threads);

    Record rec;
    rec.model = name;
    rec.planned_eps = static_cast<double>(epochs) / planned_s;
    {
      models::ZooModel probe = models::make_model(name, train.num_classes, 7);
      nn::TrainingPlan plan(probe.net, train.sample_shape(), batch);
      rec.planned_bytes = plan.planned_workspace_bytes();
      // One step materializes the high-water mark the shape-inferred budget
      // is checked against.
      util::Rng feed_rng(1);
      data::BatchPipeline feed(train, batch, feed_rng, /*depth=*/0,
                               /*shuffle=*/false);
      tensor::TensorView images;
      std::vector<std::int64_t> labels;
      if (feed.next(images, labels)) plan.step(images, labels);
      rec.peak_bytes = plan.peak_workspace_bytes();
    }
    records.push_back(rec);

    table.add_row({name, util::cell(rec.planned_eps, 2),
                   util::cell(static_cast<double>(rec.planned_bytes) / 1024.0, 1),
                   util::cell(static_cast<double>(rec.peak_bytes) / 1024.0, 1)});
  }

  std::printf("\n== training throughput, %lld epochs x batch %lld, "
              "%d host thread(s) (bitwise thread invariance verified) ==\n%s",
              static_cast<long long>(epochs), static_cast<long long>(batch),
              host_threads, table.to_string().c_str());

  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    {
      nshd::bench::JsonWriter json(out);
      json.begin_object();
      json.field("isa", tensor::simd::kIsaName);
      json.field("epochs", epochs);
      json.field("batch", batch);
      json.field("samples", train.size());
      json.field("threads", host_threads);
      json.begin_array("results");
      for (const Record& r : records) {
        json.begin_object();
        json.field("model", r.model);
        json.field("planned_epochs_per_sec", r.planned_eps, 3);
        json.field("planned_workspace_bytes", r.planned_bytes);
        json.field("peak_workspace_bytes", r.peak_bytes);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not open %s for writing\n",
                 json_path.c_str());
  }
  return parity_failure ? 1 : 0;
}
