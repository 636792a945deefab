#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "data/pipeline.hpp"
#include "nn/plan.hpp"
#include "nn/train_plan.hpp"
#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

namespace {

bool all_finite(const std::vector<tensor::Tensor*>& state) {
  for (const tensor::Tensor* t : state)
    for (const float v : t->span())
      if (!std::isfinite(v)) return false;
  return true;
}

std::vector<tensor::Tensor> clone_state(const std::vector<tensor::Tensor*>& src) {
  std::vector<tensor::Tensor> out;
  out.reserve(src.size());
  for (const tensor::Tensor* t : src) out.push_back(*t);
  return out;
}

/// Copies snapshot tensors back into the live state; false on layout drift.
bool restore_state(const std::vector<tensor::Tensor>& snapshot,
                   const std::vector<tensor::Tensor*>& dst) {
  if (snapshot.size() != dst.size()) return false;
  for (std::size_t i = 0; i < dst.size(); ++i)
    if (snapshot[i].numel() != dst[i]->numel()) return false;
  for (std::size_t i = 0; i < dst.size(); ++i)
    std::memcpy(dst[i]->data(), snapshot[i].data(),
                static_cast<std::size_t>(dst[i]->numel()) * sizeof(float));
  return true;
}

}  // namespace

util::Checkpoint TrainCheckpoint::to_artifact(std::string key) const {
  util::Checkpoint artifact;
  artifact.key = std::move(key);
  char meta[160];
  // %a round-trips lr_scale bitwise through the text field.
  std::snprintf(meta, sizeof meta,
                "train|epochs_done=%lld;recoveries=%lld;lr_scale=%a;model_tensors=%zu",
                static_cast<long long>(epochs_done),
                static_cast<long long>(recoveries),
                static_cast<double>(lr_scale), model_state.size());
  artifact.meta = meta;
  artifact.tensors.reserve(model_state.size() + optimizer_state.size());
  for (const auto* bank : {&model_state, &optimizer_state}) {
    for (const tensor::Tensor& t : *bank) {
      util::CheckpointTensor ct;
      ct.dims = t.shape().dims();
      ct.values = t.storage();
      artifact.tensors.push_back(std::move(ct));
    }
  }
  return artifact;
}

std::optional<TrainCheckpoint> TrainCheckpoint::from_artifact(
    const util::Checkpoint& artifact) {
  long long epochs_done = 0, recoveries = 0;
  double lr_scale = 1.0;
  std::size_t model_tensors = 0;
  if (std::sscanf(artifact.meta.c_str(),
                  "train|epochs_done=%lld;recoveries=%lld;lr_scale=%la;model_tensors=%zu",
                  &epochs_done, &recoveries, &lr_scale, &model_tensors) != 4)
    return std::nullopt;
  if (model_tensors > artifact.tensors.size()) return std::nullopt;

  TrainCheckpoint tc;
  tc.epochs_done = epochs_done;
  tc.recoveries = recoveries;
  tc.lr_scale = static_cast<float>(lr_scale);
  for (std::size_t i = 0; i < artifact.tensors.size(); ++i) {
    const util::CheckpointTensor& ct = artifact.tensors[i];
    tensor::Tensor t(tensor::Shape(ct.dims), ct.values);
    (i < model_tensors ? tc.model_state : tc.optimizer_state).push_back(std::move(t));
  }
  return tc;
}

TrainReport train_classifier(Sequential& model, const data::Dataset& train,
                             const TrainConfig& config, const EpochHook& on_epoch,
                             const TrainCheckpoint* resume) {
  util::Rng rng(config.seed);
  Sgd optimizer(model.params(), config.learning_rate, config.momentum,
                config.weight_decay);
  // Batch assembly overlaps the training step through the prefetch pipeline;
  // its batch stream is bitwise identical to data::BatchIterator at every
  // depth (0 = synchronous).
  const int prefetch =
      config.prefetch_depth >= 0
          ? std::min(config.prefetch_depth, data::kMaxPrefetchDepth)
          : data::prefetch_depth_from_env();
  data::BatchPipeline batches(train, config.batch_size, rng, prefetch);

  // Each step — training forward, fused softmax-CE, backward — runs out of
  // one preplanned workspace with zero heap traffic.  An empty dataset yields
  // no batches, so it needs no plan.
  std::optional<TrainingPlan> plan;
  if (train.size() > 0) plan.emplace(model, train.sample_shape(), config.batch_size);

  std::vector<tensor::Tensor*> model_state;
  model.append_state(model_state);
  std::vector<tensor::Tensor*> optimizer_state;
  optimizer.append_state(optimizer_state);

  TrainReport report;
  std::int64_t first_epoch = 0;
  float lr_scale = 1.0f;
  std::int64_t recoveries = 0;

  if (resume != nullptr) {
    if (restore_state(resume->model_state, model_state) &&
        restore_state(resume->optimizer_state, optimizer_state)) {
      first_epoch = std::min(resume->epochs_done, config.epochs);
      lr_scale = resume->lr_scale;
      recoveries = resume->recoveries;
      report.resumed_from_epoch = first_epoch;
      // Replay the shuffle stream the skipped epochs consumed, so epoch
      // `first_epoch` draws exactly the batches it would have in an
      // uninterrupted run.
      for (std::int64_t e = 0; e < first_epoch; ++e) batches.reset();
      NSHD_LOG_INFO("resuming training at epoch %lld",
                    static_cast<long long>(first_epoch));
    } else {
      NSHD_LOG_WARN("resume checkpoint does not match the model layout; "
                    "training from scratch");
    }
  }

  // Rollback target for divergence recovery; before the first completed
  // epoch this is the initial (or resumed) state.
  TrainCheckpoint last_good;
  last_good.epochs_done = first_epoch;
  last_good.lr_scale = lr_scale;
  last_good.recoveries = recoveries;
  last_good.model_state = clone_state(model_state);
  last_good.optimizer_state = clone_state(optimizer_state);

  const std::int64_t batches_per_epoch = batches.batches_per_epoch();
  const std::int64_t total_steps =
      std::max<std::int64_t>(1, config.epochs * batches_per_epoch);
  std::int64_t step = first_epoch * batches_per_epoch;

  std::int64_t epoch = first_epoch;
  while (epoch < config.epochs) {
    util::Stopwatch watch;
    batches.reset();
    tensor::TensorView images;
    std::vector<std::int64_t> labels;
    double loss_sum = 0.0;
    std::int64_t correct = 0, seen = 0, batch_count = 0;

    while (batches.next(images, labels)) {
      // Cosine learning-rate schedule, scaled by the divergence backoff.
      const double progress = static_cast<double>(step) / static_cast<double>(total_steps);
      const float lr = config.learning_rate * lr_scale *
                       (config.min_lr_fraction +
                        (1.0f - config.min_lr_fraction) *
                            0.5f * (1.0f + static_cast<float>(std::cos(progress * 3.14159265))));
      optimizer.set_learning_rate(lr);

      const TrainStepStats batch_stats = plan->step(images, labels);
      double batch_loss = batch_stats.loss;
      if (util::fault::should_fire("trainer.nan_loss"))
        batch_loss = std::numeric_limits<double>::quiet_NaN();
      optimizer.step();

      loss_sum += batch_loss;
      correct += batch_stats.correct;
      seen += static_cast<std::int64_t>(labels.size());
      ++batch_count;
      ++step;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.loss = loss_sum / std::max<std::int64_t>(1, batch_count);
    stats.accuracy = static_cast<double>(correct) / std::max<std::int64_t>(1, seen);
    stats.seconds = watch.seconds();

    if (config.recover_divergence &&
        (!std::isfinite(stats.loss) || !all_finite(model_state))) {
      restore_state(last_good.model_state, model_state);
      restore_state(last_good.optimizer_state, optimizer_state);
      step = epoch * batches_per_epoch;  // rewind the schedule too
      if (recoveries >= config.max_divergence_retries) {
        report.diverged = true;
        report.divergence_recoveries = recoveries;
        NSHD_LOG_ERROR("epoch %lld diverged and retries are exhausted (%lld); "
                       "keeping the last finite weights",
                       static_cast<long long>(epoch),
                       static_cast<long long>(recoveries));
        return report;
      }
      ++recoveries;
      lr_scale *= config.divergence_backoff;
      NSHD_LOG_WARN("epoch %lld produced a non-finite loss/weight; rolled back "
                    "to epoch %lld, retrying with lr scale %.4g (recovery %lld)",
                    static_cast<long long>(epoch),
                    static_cast<long long>(last_good.epochs_done), lr_scale,
                    static_cast<long long>(recoveries));
      continue;  // retry the same epoch index
    }

    report.epochs.push_back(stats);
    report.final_train_accuracy = stats.accuracy;
    report.divergence_recoveries = recoveries;
    NSHD_LOG_INFO("epoch %lld: loss=%.4f acc=%.4f (%.1fs)",
                  static_cast<long long>(epoch), stats.loss, stats.accuracy,
                  stats.seconds);

    last_good.epochs_done = epoch + 1;
    last_good.lr_scale = lr_scale;
    last_good.recoveries = recoveries;
    last_good.model_state = clone_state(model_state);
    last_good.optimizer_state = clone_state(optimizer_state);
    if (on_epoch) on_epoch(stats, last_good);

    if (config.target_train_accuracy > 0.0f &&
        stats.accuracy >= config.target_train_accuracy) {
      NSHD_LOG_INFO("early stop at epoch %lld (train acc %.4f)",
                    static_cast<long long>(epoch), stats.accuracy);
      break;
    }
    ++epoch;
  }
  return report;
}

tensor::Tensor predict_logits(Plan& plan, const data::Dataset& dataset,
                              std::int64_t batch_size) {
  const std::int64_t total = dataset.size();
  if (total == 0) return tensor::Tensor();
  const std::int64_t k = plan.out_features();
  const std::int64_t sample_numel = dataset.sample_shape().numel();
  const tensor::Shape& chw = plan.sample_chw();
  tensor::Tensor all(tensor::Shape{total, k});

  // Batches write disjoint logit rows; each leases its own plan workspace.
  const tensor::TensorView images = dataset.images.view();
  const tensor::TensorView rows = all.view();
  util::parallel_for(0, total, batch_size,
                     [&](std::int64_t begin, std::int64_t end) {
    const std::int64_t n = end - begin;
    const tensor::TensorView in(images.data() + begin * sample_numel,
                                tensor::Shape{n, chw[0], chw[1], chw[2]});
    tensor::TensorView out(rows.data() + begin * k, tensor::Shape{n, k});
    plan.run_batch(in, out);
  });
  return all;
}

double evaluate_classifier(Plan& plan, const data::Dataset& dataset,
                           std::int64_t batch_size) {
  const std::int64_t total = dataset.size();
  if (total == 0) return 0.0;
  const tensor::Tensor logits = predict_logits(plan, dataset, batch_size);
  std::int64_t correct = 0;
  for (std::int64_t n = 0; n < total; ++n) {
    if (tensor::argmax_row(logits, n) == dataset.labels[static_cast<std::size_t>(n)])
      ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

double evaluate_classifier(Sequential& model, const data::Dataset& dataset,
                           std::int64_t batch_size) {
  if (dataset.size() == 0) return 0.0;
  Plan plan(model, dataset.sample_shape(), model.size() - 1, batch_size);
  return evaluate_classifier(plan, dataset, batch_size);
}

tensor::Tensor predict_logits(Sequential& model, const data::Dataset& dataset,
                              std::int64_t batch_size) {
  if (dataset.size() == 0) return tensor::Tensor();
  Plan plan(model, dataset.sample_shape(), model.size() - 1, batch_size);
  return predict_logits(plan, dataset, batch_size);
}

}  // namespace nshd::nn
