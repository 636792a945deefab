#include "models/pretrained.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace nshd::models {

std::string pretrain_cache_key(const std::string& name,
                               const PretrainOptions& options,
                               std::int64_t num_classes) {
  std::string key = "pretrained|" + name + "|k=" + std::to_string(num_classes) +
                    "|seed=" + std::to_string(options.model_seed) +
                    "|ep=" + std::to_string(options.train.epochs) +
                    "|bs=" + std::to_string(options.train.batch_size) +
                    "|lr=" + std::to_string(options.train.learning_rate) +
                    "|" + options.dataset_key;
  return key;
}

ZooModel pretrained_model(const std::string& name, const data::Dataset& train_set,
                          const PretrainOptions& options,
                          const util::DiskCache& cache) {
  ZooModel model = make_model(name, train_set.num_classes, options.model_seed);
  // Topologies without batch norm (plain VGG) need a gentler step than the
  // shared default; the effective rate is part of the cache fingerprint.
  PretrainOptions effective = options;
  effective.train.learning_rate =
      std::min(options.train.learning_rate, model.suggested_learning_rate);
  const std::string key =
      pretrain_cache_key(name, effective, train_set.num_classes);
  const std::string epoch_key = "epoch|" + key;

  {
    const util::CheckpointLoad load = cache.get_checkpoint(key);
    if (load.ok()) {
      const util::LoadStatus status = nn::load_state(model.net, load.checkpoint);
      if (status == util::LoadStatus::kOk) {
        NSHD_LOG_INFO("%s: loaded pretrained weights from cache", name.c_str());
        return model;
      }
      NSHD_LOG_WARN("%s: cached weights rejected (%s); retraining", name.c_str(),
                    util::to_string(status));
    } else if (load.status != util::LoadStatus::kNotFound) {
      NSHD_LOG_WARN("%s: cached weights unreadable (%s); retraining",
                    name.c_str(), util::to_string(load.status));
    }
  }

  // A killed run leaves an epoch checkpoint behind; resume from it so the
  // remaining epochs replay bitwise instead of starting over.
  std::optional<nn::TrainCheckpoint> resume;
  if (effective.epoch_checkpoints) {
    const util::CheckpointLoad load = cache.get_checkpoint(epoch_key);
    if (load.ok()) {
      resume = nn::TrainCheckpoint::from_artifact(load.checkpoint);
      if (!resume)
        NSHD_LOG_WARN("%s: epoch checkpoint has an unreadable meta record; "
                      "restarting training", name.c_str());
    } else if (load.status != util::LoadStatus::kNotFound) {
      NSHD_LOG_WARN("%s: epoch checkpoint unreadable (%s); restarting training",
                    name.c_str(), util::to_string(load.status));
    }
  }

  nn::EpochHook on_epoch;
  if (effective.epoch_checkpoints) {
    on_epoch = [&cache, &epoch_key, &name](const nn::EpochStats& stats,
                                           const nn::TrainCheckpoint& tc) {
      if (!cache.put_checkpoint(epoch_key, tc.to_artifact(epoch_key)))
        NSHD_LOG_WARN("%s: failed to persist epoch %lld checkpoint",
                      name.c_str(), static_cast<long long>(stats.epoch));
      if (util::fault::should_fire("pretrain.kill"))
        throw std::runtime_error("fault injected: pretrain.kill after epoch " +
                                 std::to_string(stats.epoch));
    };
  }

  NSHD_LOG_INFO("%s: pretraining on %lld samples (%lld classes)...",
                name.c_str(), static_cast<long long>(train_set.size()),
                static_cast<long long>(train_set.num_classes));
  util::Stopwatch watch;
  // Pretraining runs the zero-alloc nn::TrainingPlan step.
  nn::train_classifier(model.net, train_set, effective.train, on_epoch,
                       resume ? &*resume : nullptr);
  NSHD_LOG_INFO("%s: pretraining done in %.1fs", name.c_str(), watch.seconds());
  if (!cache.put_checkpoint(key, nn::checkpoint_state(model.net, key)))
    NSHD_LOG_WARN("%s: failed to cache pretrained weights", name.c_str());
  cache.erase_checkpoint(epoch_key);
  return model;
}

}  // namespace nshd::models
