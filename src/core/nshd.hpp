// NSHD — the paper's primary contribution (Secs. III-V).
//
// Pipeline:  image -> conv(x) (cut CNN, frozen) -> manifold Psi (maxpool+FC)
//            -> random-projection encoding Phi_P -> query hypervector H
//            -> similarity against class hypervectors M.
//
// Training (Algorithm 1): MASS retraining extended with knowledge
// distillation from the *full* CNN's logits.  The same per-sample update
// vector U drives both the class-hypervector update M += lambda U^T H and
// (decoded through the encoder with an STE) the manifold learner's FC
// update (Sec. V-C).
//
// The class doubles as the BaselineHD comparator: with `use_manifold=false`
// the encoder hashes the raw cut features through random hyperplanes (LSH,
// as in prior work [9]) and with `use_kd=false` training is plain MASS.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/feature_extractor.hpp"
#include "core/manifold.hpp"
#include "hd/classifier.hpp"
#include "hd/projection.hpp"
#include "models/zoo.hpp"

namespace nshd::core {

struct NshdConfig {
  std::int64_t dim = 3000;           // hypervector dimensionality D
  std::int64_t manifold_features = 100;  // F_hat
  float alpha = 0.7f;                // KD mixing weight (Algorithm 1 line 7-8)
  float temperature = 15.0f;         // KD softening t
  float learning_rate = 0.035f;      // lambda
  std::int64_t epochs = 12;
  bool use_kd = true;                // Fig. 8 ablation switch
  bool use_manifold = true;          // false => BaselineHD-style direct LSH
  bool train_manifold = true;        // Sec. V-C backprop on/off
  float manifold_learning_rate = 0.03f;
  SteMode ste = SteMode::kClipped;
  hd::Similarity similarity = hd::Similarity::kCosine;
  std::uint64_t seed = 33;
};

/// BaselineHD ([9]-style): extractor + LSH random hyperplanes, no manifold,
/// no distillation.
NshdConfig baseline_hd_config(std::int64_t dim = 3000);

struct NshdTrainStats {
  std::vector<double> epoch_train_accuracy;
  double seconds = 0.0;
};

/// Algorithm 1 applied to *precomputed* hypervectors (static encoder).
/// Used internally whenever the manifold is absent or frozen — encoding each
/// sample once instead of once per epoch — and directly by the
/// hyperparameter-grid benches.
struct KdRetrainConfig {
  float alpha = 0.7f;
  float temperature = 15.0f;
  float learning_rate = 0.035f;
  std::int64_t epochs = 12;
  bool use_kd = true;
  hd::Similarity similarity = hd::Similarity::kCosine;
  std::uint64_t seed = 33;
};

/// Runs Algorithm 1 epochs over cached sample hypervectors.
/// `teacher_logits` is the raw [N, K] teacher output (required when use_kd);
/// the classifier must already be initialized (bundling).
NshdTrainStats kd_retrain(hd::HdClassifier& classifier,
                          const std::vector<hd::Hypervector>& samples,
                          const std::vector<std::int64_t>& labels,
                          const tensor::Tensor* teacher_logits,
                          const KdRetrainConfig& config);

/// Cosine similarities live in [-1, 1]; they are mapped onto a logit-like
/// scale before temperature softening so the student's soft predictions are
/// commensurate with the teacher's soft labels (Algorithm 1 lines 4-5).
inline constexpr float kSimilarityLogitScale = 10.0f;

/// One Algorithm 1 update vector U from similarities and (optionally) the
/// teacher's logits for this sample:
///   soft_pred   = softmax(sims * scale / t)
///   soft_labels = softmax(teacher_logits / t)
///   U = (1-alpha) * (one_hot - sims) + alpha * (soft_labels - soft_pred).
/// Exposed for the manifold trainer and unit tests.
std::vector<float> kd_update_vector(const std::vector<float>& similarities,
                                    std::int64_t label,
                                    const float* teacher_logits, float alpha,
                                    float temperature);

class NshdModel {
 public:
  /// `extractor` is borrowed and must outlive the model; `cut_layer` selects
  /// the feature extraction depth (paper layer index).
  NshdModel(models::ZooModel& extractor, std::size_t cut_layer,
            const NshdConfig& config);

  /// Trains on materialized features.  `teacher_logits` ([N, K], from the
  /// full CNN) is required when config.use_kd is true.
  NshdTrainStats train(const ExtractedFeatures& features,
                       const std::vector<std::int64_t>& labels,
                       const tensor::Tensor* teacher_logits);

  /// Symbolization Phi_P(Psi(features)) of one raw feature row.
  hd::Hypervector symbolize(const float* features) const;

  /// Per-row numeric health of the symbolization pipeline, reported by
  /// symbolize_all when asked.  The distinction matters for degradation: bad
  /// *features* poison every downstream path (no honest answer exists), while
  /// a bad *encoding* (non-finite manifold output from corrupt FC weights)
  /// can still be served by a manifold-free HD fallback over the same raw
  /// features.
  enum class RowHealth : std::uint8_t {
    kClean = 0,
    kBadFeatures = 1,  // raw feature row carries NaN/Inf
    kBadEncoding = 2,  // manifold output non-finite (features were clean)
  };

  /// Symbolizes every row of a feature matrix.  With `health`, each encoder
  /// input also gets a numeric-health scan: the sign quantization inside
  /// hd::RandomProjection::encode silently absorbs NaN (any comparison with
  /// NaN is false), so non-finite values must be caught *before* encoding —
  /// this is the only place the serving engine can see them.  Hypervectors
  /// are produced for every row (poison rows included) so the output stays
  /// batch-shaped; (*health)[i] tells the caller which rows to quarantine.
  /// Without `health` no scan runs.  The hypervectors are bitwise identical
  /// either way, for any thread count.
  std::vector<hd::Hypervector> symbolize_all(
      const ExtractedFeatures& features,
      std::vector<RowHealth>* health = nullptr) const;

  /// True when every trainable value (manifold FC weights/bias and the class
  /// bank) is finite.  Serving gates registration and checkpoint reload on
  /// this: a NaN weight would otherwise serve garbage without ever throwing.
  bool state_finite() const;

  /// Classification of one raw feature row.
  std::int64_t predict(const float* features) const;

  /// End-to-end single image [1, C, H, W].
  std::int64_t predict_image(const tensor::Tensor& image) const;

  /// Prepares the INT8 single-image path: builds a batch-1 quantized plan
  /// over the same cut and calibrates its activation scales on
  /// `calib_images` ([N, C, H, W]).  Returns the calibration report; a
  /// report with calibration_fallbacks > 0 still serves (the affected
  /// layers run f32 — counted, never silent).
  const nn::CalibrationReport& enable_quantized_inference(
      const tensor::TensorView& calib_images, std::int64_t calib_batch = 32);

  /// predict_image on the int8 extractor.  Throws std::logic_error unless
  /// enable_quantized_inference has run.
  std::int64_t predict_image_quantized(const tensor::Tensor& image) const;

  /// The int8 image plan, or nullptr before enable_quantized_inference.
  const nn::Plan* quantized_plan() const {
    return quantized_image_plan_.get();
  }

  /// Accuracy over a materialized feature set.
  double evaluate(const ExtractedFeatures& features,
                  const std::vector<std::int64_t>& labels) const;

  const NshdConfig& config() const { return config_; }
  std::size_t cut_layer() const { return cut_layer_; }
  const hd::HdClassifier& classifier() const { return classifier_; }
  hd::HdClassifier& classifier() { return classifier_; }
  const hd::RandomProjection& projection() const { return projection_; }
  const ManifoldLearner* manifold() const {
    return manifold_ ? &*manifold_ : nullptr;
  }
  /// Mutable access for reduction-ablation tooling that substitutes the FC
  /// weights (PCA / truncation baselines).
  ManifoldLearner* mutable_manifold() { return manifold_ ? &*manifold_ : nullptr; }
  models::ZooModel& extractor() const { return *extractor_; }

  /// Features entering the HD encoder (F_hat with manifold, raw F without).
  std::int64_t encoded_features() const { return projection_.features(); }

  /// Decodes class hypervector C_c back into the encoder's input feature
  /// space (P^T C_c / D) — the symbolic-interpretability primitive: decoded
  /// prototypes align with the per-class mean of the manifold outputs, so a
  /// class's "meaning" can be inspected in feature space (Sec. VII-E).
  tensor::Tensor decode_class_prototype(std::int64_t class_index) const;

  /// Serializes the trained state (manifold FC + class bank) into a flat
  /// blob; the projection is reproducible from the config seed and is not
  /// stored.  Pair with util::DiskCache to ship trained NSHD models.
  std::vector<float> save_state() const;

  /// Restores state produced by save_state on an identically-configured
  /// model; returns false (leaving the model unchanged) on layout mismatch.
  bool load_state(const std::vector<float>& blob);

 private:
  /// Runs Algorithm 1 line 3-9 for one sample; returns whether the
  /// pre-update prediction was correct.
  bool train_step(const float* feature_row, std::int64_t label,
                  const float* teacher_logits);

  models::ZooModel* extractor_;
  std::size_t cut_layer_;
  NshdConfig config_;
  tensor::Shape feature_chw_;
  /// Lazily-built batch-1 plan so repeated predict_image calls reuse one
  /// workspace instead of re-planning the extractor every time.
  mutable std::unique_ptr<nn::Plan> image_plan_;
  /// INT8 batch-1 plan; present (and calibrated) only after
  /// enable_quantized_inference.
  std::unique_ptr<nn::Plan> quantized_image_plan_;
  std::optional<ManifoldLearner> manifold_;
  hd::RandomProjection projection_;
  hd::HdClassifier classifier_;
};

}  // namespace nshd::core
