// Shared experiment context for the bench harnesses and examples.
//
// Owns the synthetic datasets, provisions pretrained teachers (disk-cached),
// and memoizes per-(model, cut) feature extractions and teacher logits so
// that the ten bench binaries do not redo each other's work.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/feature_extractor.hpp"
#include "core/nshd.hpp"
#include "data/synth_cifar.hpp"
#include "models/pretrained.hpp"
#include "util/cache.hpp"

namespace nshd::core {

struct ExperimentConfig {
  data::SynthCifarConfig dataset;
  std::int64_t test_samples_per_class = 50;
  nn::TrainConfig teacher;
  std::uint64_t model_seed = 11;

  /// The defaults used throughout the reproduction: SynthCIFAR-10,
  /// 200 train / 50 test per class, short-schedule teachers.
  static ExperimentConfig standard(std::int64_t num_classes = 10);
};

class ExperimentContext {
 public:
  explicit ExperimentContext(const ExperimentConfig& config);

  const data::Dataset& train() const { return split_.train; }
  const data::Dataset& test() const { return split_.test; }
  std::int64_t num_classes() const { return split_.train.num_classes; }
  const ExperimentConfig& config() const { return config_; }
  const util::DiskCache& cache() const { return cache_; }

  /// Pretrained zoo model (trains on first access, then disk-cached).
  models::ZooModel& model(const std::string& name);

  /// Shared execution plan for layers [0..cut] of a pretrained model; built
  /// once per (model, cut) and reused across every sweep cell, epoch, and
  /// split that extracts at this cut.
  nn::Plan& plan(const std::string& name, std::size_t cut);

  /// Shared full-network plan (teacher logits, CNN test accuracy).
  nn::Plan& full_plan(const std::string& name);

  /// Shared INT8 plan for layers [0..cut]; built once per (model, cut) and
  /// calibrated on the training images at first access.
  nn::Plan& quantized_plan(const std::string& name, std::size_t cut);

  /// Test-split features extracted through the quantized plan (memoized
  /// in-memory; they depend on the calibration pass, not just the weights,
  /// so they are never disk-cached).
  const ExtractedFeatures& quantized_test_features(const std::string& name,
                                                   std::size_t cut);

  /// Full-CNN logits on the training set, [N_train, K] (the KD teacher).
  const tensor::Tensor& teacher_train_logits(const std::string& name);

  /// Full-CNN accuracy on the held-out test set.
  double cnn_test_accuracy(const std::string& name);

  /// Features at a cut, materialized once per (model, cut, split).
  const ExtractedFeatures& train_features(const std::string& name, std::size_t cut);
  const ExtractedFeatures& test_features(const std::string& name, std::size_t cut);

  /// Builds and trains an NSHD variant; returns test accuracy.  A config
  /// that throws or yields a non-finite accuracy comes back with `failed`
  /// set (and the reason in `error`) instead of aborting the whole sweep.
  struct NshdRun {
    double test_accuracy = 0.0;
    double final_train_accuracy = 0.0;
    double train_seconds = 0.0;
    /// Test accuracy with the extractor on the int8 quantized plan (same
    /// trained HD head); -1 unless run_nshd was asked for the quantized arm.
    double quantized_test_accuracy = -1.0;
    bool failed = false;
    std::string error;
  };
  NshdRun run_nshd(const std::string& name, std::size_t cut, const NshdConfig& config,
                   bool with_quantized = false);

  /// VanillaHD (ID-level nonlinear encoding on raw pixels) test accuracy.
  double vanilla_hd_accuracy(std::int64_t dim, std::int64_t mass_epochs = 20);

  std::string dataset_key() const { return config_.dataset.cache_key("train"); }

 private:
  ExtractedFeatures& features_impl(const std::string& name, std::size_t cut,
                                   bool is_train);

  ExperimentConfig config_;
  util::DiskCache cache_;
  data::TrainTest split_;
  std::map<std::string, models::ZooModel> models_;
  // unique_ptr: a plan owns a mutex and is neither movable nor copyable.
  // f32 plans under "name|cut=N", calibrated int8 plans under "...|int8".
  std::map<std::string, std::unique_ptr<nn::Plan>> plans_;
  std::map<std::string, tensor::Tensor> teacher_logits_;
  std::map<std::string, double> cnn_accuracy_;
  std::map<std::string, ExtractedFeatures> features_;
};

}  // namespace nshd::core
