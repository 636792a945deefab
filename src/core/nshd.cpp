#include "core/nshd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace nshd::core {

NshdConfig baseline_hd_config(std::int64_t dim) {
  NshdConfig config;
  config.dim = dim;
  config.use_kd = false;
  config.use_manifold = false;
  config.train_manifold = false;
  return config;
}

namespace {
util::Rng make_projection_rng(std::uint64_t seed) { return util::Rng(seed * 7919 + 3); }

hd::RandomProjection make_projection(const tensor::Shape& chw,
                                     const std::optional<ManifoldLearner>& manifold,
                                     const NshdConfig& config) {
  util::Rng rng = make_projection_rng(config.seed);
  const std::int64_t features =
      manifold ? manifold->output_features() : chw.numel();
  return hd::RandomProjection(config.dim, features, rng);
}
}  // namespace

namespace {
/// Numerically stable softmax of k values scaled by 1/temperature.
void softened_softmax(const float* values, std::int64_t k, float scale,
                      float temperature, float* out) {
  float hi = values[0];
  for (std::int64_t c = 1; c < k; ++c) hi = std::max(hi, values[c]);
  double sum = 0.0;
  for (std::int64_t c = 0; c < k; ++c) {
    out[c] = std::exp((values[c] - hi) * scale / temperature);
    sum += out[c];
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (std::int64_t c = 0; c < k; ++c) out[c] *= inv;
}
}  // namespace

std::vector<float> kd_update_vector(const std::vector<float>& similarities,
                                    std::int64_t label,
                                    const float* teacher_logits, float alpha,
                                    float temperature) {
  const auto k = static_cast<std::int64_t>(similarities.size());
  const bool use_kd = teacher_logits != nullptr;
  std::vector<float> update(similarities.size());

  // Algorithm 1 lines 4-6: soften the student's similarity profile and the
  // teacher's logits with the same temperature, then take the difference.
  std::vector<float> soft_pred, soft_labels;
  if (use_kd) {
    soft_pred.resize(similarities.size());
    soft_labels.resize(similarities.size());
    softened_softmax(similarities.data(), k, kSimilarityLogitScale, temperature,
                     soft_pred.data());
    softened_softmax(teacher_logits, k, 1.0f, temperature, soft_labels.data());
  }

  for (std::int64_t c = 0; c < k; ++c) {
    const float sim = similarities[static_cast<std::size_t>(c)];
    const float one_hot = (c == label) ? 1.0f : 0.0f;
    float u = (1.0f - (use_kd ? alpha : 0.0f)) * (one_hot - sim);
    if (use_kd) {
      u += alpha * (soft_labels[static_cast<std::size_t>(c)] -
                    soft_pred[static_cast<std::size_t>(c)]);
    }
    update[static_cast<std::size_t>(c)] = u;
  }
  return update;
}

NshdTrainStats kd_retrain(hd::HdClassifier& classifier,
                          const std::vector<hd::Hypervector>& samples,
                          const std::vector<std::int64_t>& labels,
                          const tensor::Tensor* teacher_logits,
                          const KdRetrainConfig& config) {
  assert(samples.size() == labels.size());
  assert(!config.use_kd || teacher_logits != nullptr);
  util::Stopwatch watch;
  NshdTrainStats stats;
  const std::int64_t k = classifier.num_classes();
  util::Rng order_rng(config.seed + 17);
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::size_t> order =
        util::random_permutation(samples.size(), order_rng);
    std::int64_t correct = 0;
    for (std::size_t idx : order) {
      const std::vector<float> sims =
          classifier.similarities(samples[idx], config.similarity);
      std::int64_t best = 0;
      for (std::int64_t c = 1; c < k; ++c)
        if (sims[static_cast<std::size_t>(c)] > sims[static_cast<std::size_t>(best)])
          best = c;
      if (best == labels[idx]) ++correct;
      const float* logits =
          config.use_kd
              ? teacher_logits->data() + static_cast<std::int64_t>(idx) * k
              : nullptr;
      const std::vector<float> update = kd_update_vector(
          sims, labels[idx], logits, config.alpha, config.temperature);
      classifier.apply_update(samples[idx], update, config.learning_rate);
    }
    stats.epoch_train_accuracy.push_back(static_cast<double>(correct) /
                                         static_cast<double>(samples.size()));
  }
  stats.seconds = watch.seconds();
  return stats;
}

NshdModel::NshdModel(models::ZooModel& extractor, std::size_t cut_layer,
                     const NshdConfig& config)
    : extractor_(&extractor),
      cut_layer_(cut_layer),
      config_(config),
      feature_chw_(extractor.feature_shape_at(cut_layer)),
      manifold_(config.use_manifold
                    ? std::optional<ManifoldLearner>(std::in_place, feature_chw_,
                                                     ManifoldConfig{
                                                         config.manifold_features,
                                                         config.manifold_learning_rate,
                                                         config.ste,
                                                         config.seed,
                                                     })
                    : std::nullopt),
      projection_(make_projection(feature_chw_, manifold_, config)),
      classifier_(extractor.num_classes, config.dim) {
  assert(cut_layer < extractor.feature_count);
}

hd::Hypervector NshdModel::symbolize(const float* features) const {
  if (manifold_) {
    return projection_.encode(manifold_->forward(features).data());
  }
  return projection_.encode(features);
}

std::vector<hd::Hypervector> NshdModel::symbolize_all(
    const ExtractedFeatures& features, std::vector<RowHealth>* health) const {
  const std::int64_t n = features.values.shape()[0];
  const std::int64_t f = features.values.shape()[1];
  std::vector<hd::Hypervector> out(static_cast<std::size_t>(n));
  if (health != nullptr)
    health->assign(static_cast<std::size_t>(n), RowHealth::kClean);
  // Sample-parallel like RandomProjection::encode_all: the manifold and
  // projection are const and mutation-free, rows write disjoint slots of
  // `out` and `health`, and the fixed grain keeps out[i] bitwise identical to
  // the serial loop for any NSHD_THREADS.
  util::parallel_for(0, n, /*grain=*/1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const float* row = features.values.data() + i * f;
      const auto slot = static_cast<std::size_t>(i);
      if (health != nullptr && !tensor::all_finite(row, f))
        (*health)[slot] = RowHealth::kBadFeatures;
      if (!manifold_) {
        out[slot] = projection_.encode(row);
        continue;
      }
      const tensor::Tensor psi = manifold_->forward(row);
      if (health != nullptr && (*health)[slot] == RowHealth::kClean &&
          !tensor::all_finite(psi.data(), psi.numel()))
        (*health)[slot] = RowHealth::kBadEncoding;
      out[slot] = projection_.encode(psi.data());
    }
  });
  return out;
}

bool NshdModel::state_finite() const {
  if (manifold_) {
    if (!tensor::all_finite(manifold_->weight().data(),
                            manifold_->weight().numel()) ||
        !tensor::all_finite(manifold_->bias().data(),
                            manifold_->bias().numel())) {
      return false;
    }
  }
  return classifier_.bank_finite();
}

std::int64_t NshdModel::predict(const float* features) const {
  return classifier_.predict(symbolize(features), config_.similarity);
}

std::int64_t NshdModel::predict_image(const tensor::Tensor& image) const {
  if (!image_plan_) {
    image_plan_ = std::make_unique<nn::Plan>(
        extractor_->net, extractor_->input_chw, cut_layer_, /*max_batch=*/1);
  }
  const tensor::Tensor features = extract_one(*image_plan_, image);
  return predict(features.data());
}

const nn::CalibrationReport& NshdModel::enable_quantized_inference(
    const tensor::TensorView& calib_images, std::int64_t calib_batch) {
  // Installed only once calibrated, so the int8 path never runs f32.
  auto plan = std::make_unique<nn::Plan>(
      extractor_->net, extractor_->input_chw, cut_layer_, /*max_batch=*/1);
  plan->calibrate(calib_images, calib_batch);
  quantized_image_plan_ = std::move(plan);
  return quantized_image_plan_->report();
}

std::int64_t NshdModel::predict_image_quantized(const tensor::Tensor& image) const {
  if (!quantized_image_plan_) {
    throw std::logic_error(
        "NshdModel: enable_quantized_inference() must run before "
        "predict_image_quantized()");
  }
  const tensor::Tensor features = extract_one(*quantized_image_plan_, image);
  return predict(features.data());
}

double NshdModel::evaluate(const ExtractedFeatures& features,
                           const std::vector<std::int64_t>& labels) const {
  const std::int64_t n = features.values.shape()[0];
  assert(static_cast<std::int64_t>(labels.size()) == n);
  if (n == 0) return 0.0;
  const std::int64_t f = features.values.shape()[1];
  // Refresh the classifier's lazy norm cache serially before the parallel
  // region (cosine predict reads it), then count matches per fixed chunk and
  // reduce in chunk order — same contract as HdClassifier::evaluate.
  (void)classifier_.class_norms();
  constexpr std::int64_t kGrain = 8;
  std::vector<std::int64_t> partial(
      static_cast<std::size_t>(util::chunk_count(0, n, kGrain)), 0);
  util::parallel_for_chunks(
      0, n, kGrain, [&](std::int64_t chunk, std::int64_t b, std::int64_t e) {
        std::int64_t hits = 0;
        for (std::int64_t i = b; i < e; ++i) {
          if (predict(features.values.data() + i * f) ==
              labels[static_cast<std::size_t>(i)])
            ++hits;
        }
        partial[static_cast<std::size_t>(chunk)] = hits;
      });
  std::int64_t correct = 0;
  for (const std::int64_t hits : partial) correct += hits;
  return static_cast<double>(correct) / static_cast<double>(n);
}

tensor::Tensor NshdModel::decode_class_prototype(std::int64_t class_index) const {
  assert(class_index >= 0 && class_index < classifier_.num_classes());
  tensor::Tensor class_hv(tensor::Shape{config_.dim});
  const float* row = classifier_.class_vector(class_index);
  for (std::int64_t d = 0; d < config_.dim; ++d) class_hv[d] = row[d];
  tensor::Tensor decoded = projection_.decode(class_hv);
  // Normalize by D so magnitudes are comparable across dimensionalities.
  const float inv = 1.0f / static_cast<float>(config_.dim);
  for (float& v : decoded.span()) v *= inv;
  return decoded;
}

std::vector<float> NshdModel::save_state() const {
  std::vector<float> blob;
  const std::int64_t manifold_numel =
      manifold_ ? manifold_->weight().numel() + manifold_->bias().numel() : 0;
  blob.reserve(static_cast<std::size_t>(1 + manifold_numel +
                                        classifier_.bank().numel()));
  // Layout fingerprint: sizes of the serialized sections.
  const float fingerprint =
      static_cast<float>(manifold_numel % 65536) * 131072.0f +
      static_cast<float>(classifier_.bank().numel() % 65536);
  blob.push_back(fingerprint);
  if (manifold_) {
    const auto& w = manifold_->weight().storage();
    const auto& b = manifold_->bias().storage();
    blob.insert(blob.end(), w.begin(), w.end());
    blob.insert(blob.end(), b.begin(), b.end());
  }
  const auto& bank = classifier_.bank().storage();
  blob.insert(blob.end(), bank.begin(), bank.end());
  return blob;
}

bool NshdModel::load_state(const std::vector<float>& blob) {
  const std::int64_t manifold_numel =
      manifold_ ? manifold_->weight().numel() + manifold_->bias().numel() : 0;
  const std::int64_t expected = 1 + manifold_numel + classifier_.bank().numel();
  if (static_cast<std::int64_t>(blob.size()) != expected) return false;
  const float fingerprint =
      static_cast<float>(manifold_numel % 65536) * 131072.0f +
      static_cast<float>(classifier_.bank().numel() % 65536);
  if (blob[0] != fingerprint) return false;
  std::size_t offset = 1;
  if (manifold_) {
    auto& w = manifold_->weight().storage();
    std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(offset), w.size(), w.begin());
    offset += w.size();
    auto& b = manifold_->bias().storage();
    std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(offset), b.size(), b.begin());
    offset += b.size();
  }
  auto& bank = classifier_.bank().storage();
  std::copy_n(blob.begin() + static_cast<std::ptrdiff_t>(offset), bank.size(), bank.begin());
  // The bank was overwritten behind the classifier's back; without this the
  // cosine path would keep serving the *previous* bank's cached norms.
  classifier_.invalidate_norms();
  return true;
}

bool NshdModel::train_step(const float* feature_row, std::int64_t label,
                           const float* teacher_logits) {
  const std::int64_t k = classifier_.num_classes();

  // Symbolize, keeping the intermediates the manifold update needs.
  tensor::Tensor pooled, compressed, pre_sign;
  hd::Hypervector h;
  if (manifold_) {
    pooled = manifold_->pool(feature_row);
    compressed = manifold_->compress(pooled);
    h = projection_.encode(compressed, pre_sign);
  } else {
    h = projection_.encode(feature_row);
  }

  // Algorithm 1 lines 3-8.
  const std::vector<float> sims = classifier_.similarities(h, config_.similarity);
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < k; ++c)
    if (sims[static_cast<std::size_t>(c)] > sims[static_cast<std::size_t>(best)]) best = c;

  const std::vector<float> update = kd_update_vector(
      sims, label, config_.use_kd ? teacher_logits : nullptr, config_.alpha,
      config_.temperature);

  // Line 9: M += lambda U^T H.
  classifier_.apply_update(h, update, config_.learning_rate);

  // Sec. V-C: decode the class-hypervector error to the manifold layer.
  // The manifold is supervised by the ground-truth error component only:
  // the distillation term is a soft target for the class bank, not a
  // gradient of the compression objective, and feeding it through the
  // decoder destabilizes the FC regressor.
  if (manifold_ && config_.train_manifold) {
    const std::vector<float> gt_update =
        kd_update_vector(sims, label, /*teacher_logits=*/nullptr, 0.0f,
                         config_.temperature);
    const tensor::Tensor g_h = classifier_.query_gradient(gt_update);
    manifold_->apply_hd_error(projection_, g_h, pre_sign, pooled);
  }
  return best == label;
}

NshdTrainStats NshdModel::train(const ExtractedFeatures& features,
                                const std::vector<std::int64_t>& labels,
                                const tensor::Tensor* teacher_logits) {
  const std::int64_t n = features.values.shape()[0];
  const std::int64_t f = features.values.shape()[1];
  assert(static_cast<std::int64_t>(labels.size()) == n);
  assert(!config_.use_kd || teacher_logits != nullptr);
  assert(features.chw == feature_chw_ && "features extracted at a different cut");

  util::Stopwatch watch;
  NshdTrainStats stats;

  if (config_.use_kd) {
    assert(teacher_logits->shape()[0] == n);
  }

  // One-shot bundling initialization with the current (untrained) encoder.
  std::vector<hd::Hypervector> initial = symbolize_all(features);
  classifier_.bundle_init(initial, labels);

  KdRetrainConfig retrain;
  retrain.alpha = config_.alpha;
  retrain.temperature = config_.temperature;
  retrain.learning_rate = config_.learning_rate;
  retrain.epochs = config_.epochs;
  retrain.use_kd = config_.use_kd;
  retrain.similarity = config_.similarity;
  retrain.seed = config_.seed;

  // Static encoder (no manifold, or manifold frozen): hypervectors never
  // change across epochs, so retrain on the cached encodings.
  if (!manifold_ || !config_.train_manifold) {
    stats = kd_retrain(classifier_, initial, labels,
                       config_.use_kd ? teacher_logits : nullptr, retrain);
    stats.seconds = watch.seconds();
    return stats;
  }
  initial.clear();

  // Phase 1 — manifold fitting: online MASS epochs with ground-truth
  // updates only.  The distilled component is a soft target for the class
  // bank, not a gradient of the compression objective; training the FC
  // regressor against it is unstable (see DESIGN.md).
  util::Rng order_rng(config_.seed + 17);
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    std::vector<std::size_t> order =
        util::random_permutation(static_cast<std::size_t>(n), order_rng);
    std::int64_t correct = 0;
    for (std::size_t idx : order) {
      const float* row = features.values.data() + static_cast<std::int64_t>(idx) * f;
      if (train_step(row, labels[idx], /*teacher_logits=*/nullptr)) ++correct;
    }
    const double acc = static_cast<double>(correct) / static_cast<double>(n);
    stats.epoch_train_accuracy.push_back(acc);
    NSHD_LOG_DEBUG("nshd manifold epoch %lld: train acc %.4f",
                   static_cast<long long>(epoch), acc);
  }

  // Phase 2 — knowledge distillation (Algorithm 1) over the now-frozen
  // encoder: rebuild the bank by bundling and retrain it with the mixed
  // ground-truth + distilled updates on cached encodings.
  if (config_.use_kd) {
    const std::vector<hd::Hypervector> encoded = symbolize_all(features);
    classifier_.bundle_init(encoded, labels);
    const NshdTrainStats kd_stats =
        kd_retrain(classifier_, encoded, labels, teacher_logits, retrain);
    stats.epoch_train_accuracy.insert(stats.epoch_train_accuracy.end(),
                                      kd_stats.epoch_train_accuracy.begin(),
                                      kd_stats.epoch_train_accuracy.end());
  }
  stats.seconds = watch.seconds();
  return stats;
}

}  // namespace nshd::core
