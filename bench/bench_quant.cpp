// INT8 quantized inference: throughput, accuracy cost, and the FPGA
// cross-check.
//
// Part 1 (throughput): for every zoo model and paper cut this harness
// extracts features from the same dataset through an f32 nn::Plan and a
// calibrated int8 one at a fixed thread count (default 1, the acceptance
// configuration) and reports samples/sec for both.  Before timing, the int8
// path is gated: outputs must be bitwise deterministic across repeated runs,
// a plan with no int8 layers must match the f32 plan bit for bit, and a plan
// with int8 layers must stay within a small relative L2 error of f32.  A
// plan with no int8 layers runs the same f32 tape as the f32 plan, so it is
// gated but not timed, and gets no speedup.  Each timed row also carries
// hw::quant_cross_check — the DPU-model analytic INT8 throughput for the
// same prefix against the measured CPU number.
//
// Part 2 (accuracy, skipped with --no_accuracy): the fig7/fig10 experiment
// context trains NSHD per model at its deepest paper cut and evaluates the
// same trained HD head on f32 and int8 features.  A top-1 drop beyond
// --max_drop_pp (default 1.0) percentage points is FATAL.
//
// Results land on stdout as tables and in BENCH_quant.json, stamped with
// the compile-time SIMD ISA and the int8 GEMM kernel selected at run time.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/feature_extractor.hpp"
#include "data/synth_cifar.hpp"
#include "hw/census.hpp"
#include "hw/fpga.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nshd;

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

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

double relative_l2(const tensor::Tensor& x, const tensor::Tensor& ref) {
  double err = 0.0, norm = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(ref[i]);
    err += d * d;
    norm += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
  }
  return norm > 0.0 ? std::sqrt(err / norm) : std::sqrt(err);
}

struct ThroughputRecord {
  std::string model;
  std::size_t cut = 0;
  bool timed = false;  // false for all-fallback plans: both arms are f32
  double f32_sps = 0.0;
  double int8_sps = 0.0;
  std::int64_t int8_layers = 0;
  std::int64_t fallback_layers = 0;
  double rel_l2 = 0.0;
  std::size_t planned_bytes = 0;
  std::size_t peak_bytes = 0;
  double analytic_fps = 0.0;
  double analytic_over_measured = 0.0;
};

struct AccuracyRecord {
  std::string model;
  std::size_t cut = 0;
  bool failed = false;
  double f32_accuracy = 0.0;
  double int8_accuracy = 0.0;
  double drop_pp = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  util::set_log_level(util::LogLevel::kInfo);
  const std::int64_t batch = args.get_int("batch", 32);
  const int reps = args.get_int("reps", 3);
  const int threads = args.get_int("threads", 1);
  const double max_drop_pp = args.get_double("max_drop_pp", 1.0);
  const double min_speedup = args.get_double("min_speedup", 1.8);
  const std::string json_path = args.get("json", "BENCH_quant.json");
  const bool with_accuracy = !args.has("no_accuracy");

  util::set_thread_count(threads);

  data::SynthCifarConfig data_config;
  data_config.num_classes = 4;
  data_config.samples_per_class = args.get_int("per_class", 24);  // 96 samples
  const data::Dataset dataset = data::make_synth_cifar(data_config);
  const double n = static_cast<double>(dataset.size());

  std::vector<std::string> names = models::zoo_model_names();
  if (args.has("models")) names = bench::models_from_args(args);

  const hw::FpgaModel fpga;
  bool fatal = false;
  double best_int8_speedup = 0.0;

  util::Table table({"model", "cut", "f32 sps", "int8 sps", "speedup",
                     "int8/f32 layers", "rel L2", "DPU/CPU"});
  std::vector<ThroughputRecord> records;

  for (const std::string& name : names) {
    models::ZooModel model = models::make_model(name, 4, /*seed=*/7);
    for (const std::size_t cut : model.paper_cut_layers) {
      nn::InferencePlan plan(model.net, model.input_chw, cut, batch);
      nn::QuantizedInferencePlan qplan(model.net, model.input_chw, cut, batch);
      const nn::CalibrationReport& report =
          qplan.calibrate(dataset.images.view(), batch);
      if (!report.clean()) {
        std::fprintf(stderr, "FATAL: %s cut=%zu calibration fallbacks on clean data\n",
                     name.c_str(), cut);
        fatal = true;
        continue;
      }

      // Warm-up + gates before any timing.
      const core::ExtractedFeatures f32_feats =
          core::extract_features(plan, dataset, batch);
      const core::ExtractedFeatures int8_feats =
          core::extract_features(qplan, dataset, batch);
      const core::ExtractedFeatures int8_again =
          core::extract_features(qplan, dataset, batch);
      if (!bitwise_equal(int8_feats.values, int8_again.values)) {
        std::fprintf(stderr, "FATAL: %s cut=%zu int8 output not deterministic\n",
                     name.c_str(), cut);
        fatal = true;
        continue;
      }
      const double rel = relative_l2(int8_feats.values, f32_feats.values);
      if (report.int8_layers == 0) {
        // Full-fallback plan: must be the f32 plan, bit for bit.
        if (!bitwise_equal(int8_feats.values, f32_feats.values)) {
          std::fprintf(stderr, "FATAL: %s cut=%zu all-fallback plan != f32 plan\n",
                       name.c_str(), cut);
          fatal = true;
          continue;
        }
      } else if (rel > 0.15) {
        std::fprintf(stderr, "FATAL: %s cut=%zu int8 rel L2 %.4f exceeds 0.15\n",
                     name.c_str(), cut, rel);
        fatal = true;
        continue;
      }

      ThroughputRecord rec;
      rec.model = name;
      rec.cut = cut;
      rec.timed = report.int8_layers > 0;
      if (rec.timed) {
        rec.f32_sps = n / best_seconds(reps, [&] {
          core::extract_features(plan, dataset, batch);
        });
        rec.int8_sps = n / best_seconds(reps, [&] {
          core::extract_features(qplan, dataset, batch);
        });
      }
      rec.int8_layers = report.int8_layers;
      rec.fallback_layers = report.fallback_layers;
      rec.rel_l2 = rel;
      rec.planned_bytes = qplan.planned_workspace_bytes();
      rec.peak_bytes = qplan.peak_workspace_bytes();
      const hw::QuantCrossCheck check = hw::quant_cross_check(
          fpga, hw::nshd_census(model, cut, 3000, 100, dataset.num_classes),
          cut + 1, rec.int8_sps);
      rec.analytic_fps = check.analytic_fps;
      rec.analytic_over_measured = check.analytic_over_measured;
      if (rec.timed)
        best_int8_speedup = std::max(best_int8_speedup, rec.int8_sps / rec.f32_sps);
      records.push_back(rec);

      const std::string untimed = "-";
      table.add_row({name, util::cell(static_cast<int>(cut)),
                     rec.timed ? util::cell(rec.f32_sps, 1) : untimed,
                     rec.timed ? util::cell(rec.int8_sps, 1) : untimed,
                     rec.timed ? util::cell(rec.int8_sps / rec.f32_sps, 2) + "x" : untimed,
                     util::cell(static_cast<int>(rec.int8_layers)) + "/" +
                         util::cell(static_cast<int>(rec.fallback_layers)),
                     util::cell(rec.rel_l2, 4),
                     rec.timed ? util::cell(rec.analytic_over_measured, 1) + "x"
                               : untimed});
    }
  }

  std::printf("\n== int8 vs f32 planned throughput, batch %lld, %d thread(s), int8 kernel %s ==\n%s",
              static_cast<long long>(batch), threads, tensor::int8_kernel_name(),
              table.to_string().c_str());

  if (best_int8_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FATAL: best int8 speedup %.2fx below the %.2fx floor "
                 "(no int8-capable model met the target)\n",
                 best_int8_speedup, min_speedup);
    fatal = true;
  }

  // Part 2: accuracy cost on the fig7/fig10 experiment context.
  std::vector<AccuracyRecord> accuracy;
  if (with_accuracy) {
    core::ExperimentContext context(bench::config_from_args(args));
    util::Table acc_table({"model", "cut", "NSHD f32", "NSHD int8", "drop"});
    for (const std::string& name : names) {
      models::ZooModel& m = context.model(name);
      const std::size_t cut = m.paper_cut_layers.back();
      const auto run = context.run_nshd(name, cut, core::NshdConfig{},
                                        /*with_quantized=*/true);
      AccuracyRecord rec;
      rec.model = name;
      rec.cut = cut;
      rec.failed = run.failed;
      if (!run.failed) {
        rec.f32_accuracy = run.test_accuracy;
        rec.int8_accuracy = run.quantized_test_accuracy;
        rec.drop_pp = (run.test_accuracy - run.quantized_test_accuracy) * 100.0;
        if (rec.drop_pp > max_drop_pp) {
          std::fprintf(stderr,
                       "FATAL: %s cut=%zu int8 top-1 drop %.2fpp exceeds %.2fpp\n",
                       name.c_str(), cut, rec.drop_pp, max_drop_pp);
          fatal = true;
        }
      } else {
        std::fprintf(stderr, "FATAL: %s cut=%zu accuracy run failed: %s\n",
                     name.c_str(), cut, run.error.c_str());
        fatal = true;
      }
      accuracy.push_back(rec);
      acc_table.add_row({models::display_name(name), util::cell(static_cast<int>(cut)),
                         run.failed ? "FAILED" : util::cell(rec.f32_accuracy, 4),
                         run.failed ? "FAILED" : util::cell(rec.int8_accuracy, 4),
                         run.failed ? "n/a" : util::cell(rec.drop_pp, 2) + "pp"});
    }
    bench::emit("int8 accuracy cost on SynthCIFAR-" +
                    std::to_string(context.num_classes()),
                acc_table);
  }

  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    {
      bench::JsonWriter json(out);
      json.begin_object();
      json.field("isa", tensor::simd::kIsaName);
      json.field("int8_kernel", tensor::int8_kernel_name());
      json.field("batch", batch);
      json.field("threads", threads);
      json.field("samples", dataset.size());
      json.begin_array("throughput");
      for (const ThroughputRecord& r : records) {
        json.begin_object();
        json.field("model", r.model);
        json.field("cut", r.cut);
        json.field("timed", r.timed);
        if (r.timed) {
          json.field("f32_samples_per_sec", r.f32_sps, 2);
          json.field("int8_samples_per_sec", r.int8_sps, 2);
          json.field("speedup", r.int8_sps / r.f32_sps, 3);
        }
        json.field("int8_layers", r.int8_layers);
        json.field("fallback_layers", r.fallback_layers);
        json.field("relative_l2_vs_f32", r.rel_l2, 5);
        json.field("planned_workspace_bytes", r.planned_bytes);
        json.field("peak_workspace_bytes", r.peak_bytes);
        json.field("fpga_analytic_fps", r.analytic_fps, 1);
        if (r.timed) {
          json.field("fpga_analytic_over_measured", r.analytic_over_measured, 2);
        }
        json.end_object();
      }
      json.end_array();
      if (with_accuracy) {
        json.begin_array("accuracy");
        for (const AccuracyRecord& r : accuracy) {
          json.begin_object();
          json.field("model", r.model);
          json.field("cut", r.cut);
          json.field("failed", r.failed);
          json.field("f32_accuracy", r.f32_accuracy, 4);
          json.field("int8_accuracy", r.int8_accuracy, 4);
          json.field("top1_drop_pp", r.drop_pp, 2);
          json.end_object();
        }
        json.end_array();
      }
      json.end_object();
    }
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not open %s for writing\n", json_path.c_str());
  }
  return fatal ? 1 : 0;
}
