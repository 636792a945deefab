#include "core/experiment.hpp"

#include <cmath>
#include <cstring>
#include <exception>

#include "hd/vanilla.hpp"
#include "nn/trainer.hpp"
#include "util/log.hpp"

namespace nshd::core {

ExperimentConfig ExperimentConfig::standard(std::int64_t num_classes) {
  ExperimentConfig config;
  config.dataset.num_classes = num_classes;
  config.dataset.samples_per_class = num_classes >= 100 ? 40 : 200;
  config.test_samples_per_class = num_classes >= 100 ? 10 : 50;
  config.teacher.epochs = 12;
  config.teacher.batch_size = 32;
  config.teacher.learning_rate = 0.05f;
  config.teacher.target_train_accuracy = 0.995f;
  return config;
}

ExperimentContext::ExperimentContext(const ExperimentConfig& config)
    : config_(config),
      cache_(util::DiskCache::standard()),
      split_(data::make_synth_cifar_split(config.dataset,
                                          config.test_samples_per_class)) {}

models::ZooModel& ExperimentContext::model(const std::string& name) {
  auto it = models_.find(name);
  if (it != models_.end()) return it->second;

  models::PretrainOptions options;
  options.train = config_.teacher;
  options.dataset_key = dataset_key();
  options.model_seed = config_.model_seed;
  models::ZooModel m = models::pretrained_model(name, split_.train, options, cache_);
  return models_.emplace(name, std::move(m)).first->second;
}

nn::Plan& ExperimentContext::plan(const std::string& name, std::size_t cut) {
  const std::string key = name + "|cut=" + std::to_string(cut);
  auto it = plans_.find(key);
  if (it != plans_.end()) return *it->second;
  // model() first: the plan must bind the *pretrained* weights' net.
  models::ZooModel& m = model(name);
  auto built = std::make_unique<nn::Plan>(m.net, m.input_chw, cut);
  return *plans_.emplace(key, std::move(built)).first->second;
}

nn::Plan& ExperimentContext::full_plan(const std::string& name) {
  models::ZooModel& m = model(name);
  return plan(name, m.net.size() - 1);
}

nn::Plan& ExperimentContext::quantized_plan(const std::string& name,
                                            std::size_t cut) {
  const std::string key = name + "|cut=" + std::to_string(cut) + "|int8";
  auto it = plans_.find(key);
  if (it != plans_.end()) return *it->second;
  models::ZooModel& m = model(name);
  auto built = std::make_unique<nn::Plan>(m.net, m.input_chw, cut);
  NSHD_LOG_INFO("%s: calibrating int8 plan at cut %zu on the training set",
                name.c_str(), cut);
  const nn::CalibrationReport& report =
      built->calibrate(split_.train.images.view());
  NSHD_LOG_INFO("%s cut=%zu: int8 plan calibrated (%lld int8 / %lld f32 layers, "
                "%lld calibration fallbacks)",
                name.c_str(), cut, static_cast<long long>(report.int8_layers),
                static_cast<long long>(report.fallback_layers),
                static_cast<long long>(report.calibration_fallbacks));
  return *plans_.emplace(key, std::move(built)).first->second;
}

const ExtractedFeatures& ExperimentContext::quantized_test_features(
    const std::string& name, std::size_t cut) {
  const std::string key = name + "|cut=" + std::to_string(cut) + "|qtest";
  auto it = features_.find(key);
  if (it != features_.end()) return it->second;
  NSHD_LOG_INFO("%s: extracting int8 features at cut %zu (test split)",
                name.c_str(), cut);
  ExtractedFeatures feats = extract_features(quantized_plan(name, cut), split_.test);
  return features_.emplace(key, std::move(feats)).first->second;
}

const tensor::Tensor& ExperimentContext::teacher_train_logits(const std::string& name) {
  auto it = teacher_logits_.find(name);
  if (it != teacher_logits_.end()) return it->second;
  NSHD_LOG_INFO("%s: computing teacher logits on the training set", name.c_str());
  tensor::Tensor logits = nn::predict_logits(full_plan(name), split_.train);
  return teacher_logits_.emplace(name, std::move(logits)).first->second;
}

double ExperimentContext::cnn_test_accuracy(const std::string& name) {
  auto it = cnn_accuracy_.find(name);
  if (it != cnn_accuracy_.end()) return it->second;
  const double acc = nn::evaluate_classifier(full_plan(name), split_.test);
  cnn_accuracy_[name] = acc;
  return acc;
}

ExtractedFeatures& ExperimentContext::features_impl(const std::string& name,
                                                    std::size_t cut, bool is_train) {
  const std::string key = name + "|cut=" + std::to_string(cut) +
                          (is_train ? "|train" : "|test");
  auto it = features_.find(key);
  if (it != features_.end()) return it->second;

  models::ZooModel& m = model(name);
  const data::Dataset& ds = is_train ? split_.train : split_.test;

  // Disk cache: features change only when the model weights or dataset
  // change, both of which are in the key.
  const std::string disk_key =
      "features|" + key + "|" +
      models::pretrain_cache_key(name,
                                 {config_.teacher, dataset_key(), config_.model_seed},
                                 ds.num_classes) +
      "|" + config_.dataset.cache_key(is_train ? "train" : "test");

  ExtractedFeatures feats;
  feats.cut_layer = cut;
  feats.chw = m.feature_shape_at(cut);
  const std::int64_t f = feats.chw.numel();
  if (auto blob = cache_.get(disk_key);
      blob && static_cast<std::int64_t>(blob->size()) == ds.size() * f) {
    feats.values = tensor::Tensor(tensor::Shape{ds.size(), f}, std::move(*blob));
  } else {
    NSHD_LOG_INFO("%s: extracting features at cut %zu (%s split)", name.c_str(),
                  cut, is_train ? "train" : "test");
    feats = extract_features(plan(name, cut), ds);
    cache_.put(disk_key, feats.values.storage());
  }
  return features_.emplace(key, std::move(feats)).first->second;
}

const ExtractedFeatures& ExperimentContext::train_features(const std::string& name,
                                                           std::size_t cut) {
  return features_impl(name, cut, /*is_train=*/true);
}

const ExtractedFeatures& ExperimentContext::test_features(const std::string& name,
                                                          std::size_t cut) {
  return features_impl(name, cut, /*is_train=*/false);
}

ExperimentContext::NshdRun ExperimentContext::run_nshd(const std::string& name,
                                                       std::size_t cut,
                                                       const NshdConfig& config,
                                                       bool with_quantized) {
  NshdRun run;
  try {
    models::ZooModel& m = model(name);
    const ExtractedFeatures& train_feats = train_features(name, cut);
    const ExtractedFeatures& test_feats = test_features(name, cut);

    NshdModel nshd(m, cut, config);
    const tensor::Tensor* logits =
        config.use_kd ? &teacher_train_logits(name) : nullptr;
    const NshdTrainStats stats = nshd.train(train_feats, split_.train.labels, logits);

    run.test_accuracy = nshd.evaluate(test_feats, split_.test.labels);
    run.final_train_accuracy =
        stats.epoch_train_accuracy.empty() ? 0.0 : stats.epoch_train_accuracy.back();
    run.train_seconds = stats.seconds;
    if (with_quantized) {
      // Same trained HD head, int8 extractor: the accuracy delta vs
      // run.test_accuracy is exactly the quantization cost at this cut.
      run.quantized_test_accuracy =
          nshd.evaluate(quantized_test_features(name, cut), split_.test.labels);
    }
    if (!std::isfinite(run.test_accuracy) ||
        !std::isfinite(run.final_train_accuracy) ||
        (with_quantized && !std::isfinite(run.quantized_test_accuracy))) {
      run.failed = true;
      run.error = "non-finite accuracy";
    }
  } catch (const std::exception& e) {
    run = NshdRun{};
    run.failed = true;
    run.error = e.what();
  }
  if (run.failed) {
    NSHD_LOG_ERROR("%s cut=%zu: NSHD run failed (%s); marking the row failed "
                   "and continuing the sweep",
                   name.c_str(), cut, run.error.c_str());
  }
  return run;
}

double ExperimentContext::vanilla_hd_accuracy(std::int64_t dim,
                                              std::int64_t mass_epochs) {
  // Deterministic in (dataset, dim, epochs): memoize the scalar on disk so
  // repeated bench runs skip the expensive raw-pixel encoding.
  const std::string cache_key = "vanillahd|" + dataset_key() + "|d=" +
                                std::to_string(dim) + "|e=" +
                                std::to_string(mass_epochs);
  if (auto blob = cache_.get(cache_key); blob && blob->size() == 1) {
    return static_cast<double>((*blob)[0]);
  }
  const std::int64_t f = split_.train.sample_shape().numel();
  hd::IdLevelConfig enc_config;
  enc_config.dim = dim;
  const hd::IdLevelEncoder encoder(f, enc_config);

  auto encode_all = [&](const data::Dataset& ds) {
    std::vector<hd::Hypervector> out;
    out.reserve(static_cast<std::size_t>(ds.size()));
    const std::int64_t chw = ds.sample_shape().numel();
    for (std::int64_t i = 0; i < ds.size(); ++i) {
      out.push_back(encoder.encode(ds.images.data() + i * chw));
    }
    return out;
  };

  NSHD_LOG_INFO("VanillaHD: encoding %lld+%lld raw images (D=%lld)",
                static_cast<long long>(split_.train.size()),
                static_cast<long long>(split_.test.size()),
                static_cast<long long>(dim));
  const std::vector<hd::Hypervector> train_hv = encode_all(split_.train);
  const std::vector<hd::Hypervector> test_hv = encode_all(split_.test);

  hd::HdClassifier classifier(num_classes(), dim);
  hd::MassConfig mass;
  mass.epochs = mass_epochs;
  classifier.train(train_hv, split_.train.labels, mass);
  const double accuracy = classifier.evaluate(test_hv, split_.test.labels);
  cache_.put(cache_key, {static_cast<float>(accuracy)});
  return accuracy;
}

}  // namespace nshd::core
