// Inference throughput of the planned engine.
//
// For every zoo model and paper cut point this harness extracts features
// from one dataset through an InferencePlan and reports samples/sec and the
// plan's workspace budget (shape-inferred estimate and observed high water).
// Before timing, the extraction is run at 1 thread and at the host's thread
// count; the two outputs must be bitwise identical (the f32 kernels fix
// every accumulation order), and any divergence fails the bench.
//
// Results land on stdout as a table and in BENCH_inference.json (one record
// per model x cut) for the driver/CI to scrape.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nshd;

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
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
  std::size_t cut = 0;
  double planned_sps = 0.0;
  std::size_t planned_bytes = 0;
  std::size_t peak_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::int64_t batch = args.get_int("batch", 32);
  const int reps = args.get_int("reps", 3);
  const std::string json_path = args.get("json", "BENCH_inference.json");

  data::SynthCifarConfig data_config;
  data_config.num_classes = 4;
  data_config.samples_per_class = args.get_int("per_class", 24);  // 96 samples
  const data::Dataset dataset = data::make_synth_cifar(data_config);
  const double n = static_cast<double>(dataset.size());

  std::vector<std::string> names = models::zoo_model_names();
  if (args.has("models")) names = {args.get("models", "")};

  const int host_threads = util::thread_count();
  util::Table table({"model", "cut", "planned sps", "planned ws KiB",
                     "peak ws KiB"});
  std::vector<Record> records;
  bool mismatch = false;

  for (const std::string& name : names) {
    models::ZooModel model = models::make_model(name, 4, /*seed=*/7);
    for (const std::size_t cut : model.paper_cut_layers) {
      nn::InferencePlan plan(model.net, model.input_chw, cut, batch);

      // Warm-up + gate: 1 thread and the host's threads agree bitwise.
      util::set_thread_count(1);
      const core::ExtractedFeatures serial =
          core::extract_features(plan, dataset, batch);
      util::set_thread_count(host_threads);
      const core::ExtractedFeatures planned =
          core::extract_features(plan, dataset, batch);
      if (!same_bits(serial.values, planned.values)) {
        std::fprintf(stderr, "FATAL: %s cut=%zu output differs at 1 vs %d threads\n",
                     name.c_str(), cut, host_threads);
        mismatch = true;
        continue;
      }

      const double planned_s = best_seconds(
          reps, [&] { core::extract_features(plan, dataset, batch); });

      Record rec;
      rec.model = name;
      rec.cut = cut;
      rec.planned_sps = n / planned_s;
      rec.planned_bytes = plan.planned_workspace_bytes();
      rec.peak_bytes = plan.peak_workspace_bytes();
      records.push_back(rec);

      table.add_row({name, util::cell(static_cast<int>(cut)),
                     util::cell(rec.planned_sps, 1),
                     util::cell(static_cast<double>(rec.planned_bytes) / 1024.0, 1),
                     util::cell(static_cast<double>(rec.peak_bytes) / 1024.0, 1)});
    }
  }

  std::printf("\n== inference throughput, batch %lld, %d threads (1-vs-%d-thread "
              "bitwise parity verified) ==\n%s",
              static_cast<long long>(batch), host_threads, host_threads,
              table.to_string().c_str());

  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    {
      bench::JsonWriter json(out);
      json.begin_object();
      json.field("isa", tensor::simd::kIsaName);
      json.field("batch", batch);
      json.field("threads", host_threads);
      json.field("samples", dataset.size());
      json.begin_array("results");
      for (const Record& r : records) {
        json.begin_object();
        json.field("model", r.model);
        json.field("cut", r.cut);
        json.field("planned_samples_per_sec", r.planned_sps, 2);
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
    std::fprintf(stderr, "WARNING: could not open %s for writing\n", json_path.c_str());
  }
  return mismatch ? 1 : 0;
}
