#include "common.hpp"

#include <algorithm>

namespace perfbench {

using nshd::tensor::Shape;
using nshd::tensor::Tensor;
using nshd::tensor::TensorView;

nshd::data::SynthCifarConfig world(std::int64_t classes, std::int64_t per_class, bool easy) {
  nshd::data::SynthCifarConfig config;
  config.num_classes = classes;
  config.samples_per_class = per_class;
  config.seed = kWorldSeed;
  if (easy) {
    config.noise_stddev = 0.2f;
    config.jitter_fraction = 0.1f;
    config.distractor_strength = 0.3f;
  }
  return config;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::int64_t> argmax_rows(const Tensor& scores) {
  const std::int64_t n = scores.shape()[0];
  const std::int64_t k = scores.shape()[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = scores.data() + i * k;
    out[static_cast<std::size_t>(i)] = std::max_element(row, row + k) - row;
  }
  return out;
}

TensorView image_rows(const Tensor& images, std::int64_t begin, std::int64_t n) {
  const Shape& s = images.shape();
  const std::int64_t numel = s[1] * s[2] * s[3];
  // The library takes mutable views; run_batch only reads its input.
  return TensorView(const_cast<float*>(images.data()) + begin * numel,
                    Shape{n, s[1], s[2], s[3]});
}

void probe_plan(Tracer& tracer, Report& report, nshd::nn::InferencePlan& plan,
                const Tensor& images, std::int64_t prefix_macs) {
  constexpr int kCalls = 12;
  Tensor out1(plan.output_shape(1));
  Tensor out32(plan.output_shape(32));
  plan.run_batch(image_rows(images, 0, 32), out32.view());  // warm the lease
  for (int i = 0; i < kCalls; ++i) {
    {
      Tracer::Scope span(tracer, "nn.plan.run_batch.b1", i);
      plan.run_batch(image_rows(images, i % 32, 1), out1.view());
    }
    Tracer::Scope span(tracer, "nn.plan.run_batch.b32", i);
    plan.run_batch(image_rows(images, 0, 32), out32.view());
  }
  const double b1 = median(tracer.durations_ms("nn.plan.run_batch.b1"));
  const double b32 = median(tracer.durations_ms("nn.plan.run_batch.b32"));
  report.metric("nn.plan.run_batch_ms.b1", b1, "ms");
  report.metric("nn.plan.run_batch_ms.b32", b32, "ms");
  report.metric("nn.plan.gmacs",
                b32 > 0.0 ? 32.0 * static_cast<double>(prefix_macs) / (b32 * 1e6) : 0.0,
                "GMAC/s");
}

void report_head(const Tracer& tracer, Report& report, const char* step_span,
                 const nshd::hw::NshdCensus& census, double rows_per_call) {
  const double sym = median(tracer.durations_ms("core.symbolize_all"));
  const double sim = median(tracer.durations_ms("hd.similarities_all"));
  report.metric("core.symbolize_all_ms", sym, "ms");
  report.metric("hd.similarities_all_ms", sim, "ms");
  const auto gmacs = [&](double macs_per_row, double ms) {
    return ms > 0.0 ? rows_per_call * macs_per_row / (ms * 1e6) : 0.0;
  };
  report.metric("core.symbolize.gmacs",
                gmacs(static_cast<double>(census.manifold_macs + census.encode_macs), sym),
                "GMAC/s");
  report.metric("hd.similarity.gmacs",
                gmacs(static_cast<double>(census.similarity_macs), sim), "GMAC/s");
  const double step = tracer.total_s(step_span);
  report.metric("hd.head_share",
                step > 0.0 ? (tracer.total_s("core.symbolize_all") +
                              tracer.total_s("hd.similarities_all")) / step
                           : 0.0,
                "share");
}

void report_sizes(Report& report, const nshd::hw::NshdCensus& census) {
  report.metric("nn.prefix.weight_mb",
                static_cast<double>(census.prefix_params) * 4.0 / 1e6, "MB");
  report.metric("hd.projection_mb",
                static_cast<double>(census.projection_bits) / 8.0 / 1e6, "MB");
  report.metric("hd.bank_mb", static_cast<double>(census.class_params) * 4.0 / 1e6,
                "MB");
}

}  // namespace perfbench
