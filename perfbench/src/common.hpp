// Helpers the workloads share: seed derivation, the traced classify step,
// and the direct-plan probe.
#pragma once

#include <cstdint>
#include <vector>

#include "core/nshd.hpp"
#include "data/synth_cifar.hpp"
#include "harness.hpp"
#include "hw/census.hpp"
#include "nn/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

// The deployed system is fixed: SynthCIFAR class definitions ("the world"),
// CNN weights, the NSHD head's projection and the head's training images do
// not depend on the run seed.  The seed drives what the system is asked to
// do: the images it classifies or learns from, their order, and when
// requests arrive.
inline constexpr std::uint64_t kWorldSeed = 42;
inline constexpr std::uint64_t kModelSeed = 7;
inline constexpr std::uint64_t kHeadSeed = 33;

/// SynthCIFAR split offsets: 0 = head training images, 1 = the fixed
/// evaluation set, 1000 + step = DriftStream chunks, and this for the
/// seed's own images.
inline std::uint64_t seed_split(std::uint64_t seed) { return 1000000 + seed; }

/// The world's image generator.  With `easy`, images carry less noise,
/// jitter and distractor clutter than the default: the serving workloads use
/// random-init CNN weights (no pretrained teacher fits the set-up budget),
/// and on default images such features score near chance.
nshd::data::SynthCifarConfig world(std::int64_t classes, std::int64_t per_class, bool easy);

/// Independent stream seed for one consumer of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Row-wise argmax of an [N, K] score tensor.
std::vector<std::int64_t> argmax_rows(const nshd::tensor::Tensor& scores);

/// Feature buffer shaped like `plan`'s cut output with `rows` rows.
template <typename Plan>
nshd::core::ExtractedFeatures feature_buffer(const Plan& plan, std::int64_t rows) {
  nshd::core::ExtractedFeatures out;
  out.cut_layer = plan.last_layer();
  const nshd::tensor::Shape one = plan.output_shape(1);
  out.chw = nshd::tensor::Shape{one[1], one.rank() > 2 ? one[2] : 1,
                                one.rank() > 3 ? one[3] : 1};
  out.values = nshd::tensor::Tensor(nshd::tensor::Shape{rows, plan.out_features()});
  return out;
}

/// One classify step through the layers' public functions, each call in its
/// own span: plan.run_batch (`plan_span`) -> NshdModel::symbolize_all ->
/// HdClassifier::similarities_all.  `features` must hold exactly the batch's
/// row count.  Returns the [N, K] scores.
template <typename Plan>
nshd::tensor::Tensor classify(Tracer& tracer, const char* plan_span, Plan& plan,
                              const nshd::core::NshdModel& nshd,
                              const nshd::tensor::TensorView& images,
                              nshd::core::ExtractedFeatures& features) {
  {
    Tracer::Scope span(tracer, plan_span);
    plan.run_batch(images, features.values.view());
  }
  std::vector<nshd::hd::Hypervector> queries;
  {
    Tracer::Scope span(tracer, "core.symbolize_all");
    queries = nshd.symbolize_all(features);
  }
  Tracer::Scope span(tracer, "hd.similarities_all");
  return nshd.classifier().similarities_all(queries, nshd.config().similarity);
}

/// [n, C, H, W] view of rows [begin, begin + n) of an image tensor.
nshd::tensor::TensorView image_rows(const nshd::tensor::Tensor& images,
                                    std::int64_t begin, std::int64_t n);

/// Times direct InferencePlan::run_batch calls at batch 1 and batch 32 on
/// `images` (at least 32 rows) and reports nn.plan.run_batch_ms.b1/.b32 and
/// nn.plan.gmacs (census prefix MACs per image over the b32 time).
void probe_plan(Tracer& tracer, Report& report, nshd::nn::InferencePlan& plan,
                const nshd::tensor::Tensor& images, std::int64_t prefix_macs);

/// Reports the HD-head layer metrics from the classify spans: per-call
/// medians of symbolize_all and similarities_all, their GMAC/s computed from
/// census sizes, and the head's share of the parent span `step_span`.
void report_head(const Tracer& tracer, Report& report, const char* step_span,
                 const nshd::hw::NshdCensus& census, double rows_per_call);

/// Census-derived byte counts (computed from tensor sizes, not measured).
void report_sizes(Report& report, const nshd::hw::NshdCensus& census);

}  // namespace perfbench
