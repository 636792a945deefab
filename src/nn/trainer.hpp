// Mini-batch CNN trainer: the "pretraining" step the paper buys for free by
// downloading ImageNet weights.  Hardened for long runs: a non-finite epoch
// rolls back to the last finite snapshot with a learning-rate backoff, and
// every completed epoch yields a TrainCheckpoint from which a killed run
// resumes bitwise (given the same config, seed, and the deterministic
// thread pool).
#pragma once

#include <functional>
#include <optional>

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/plan.hpp"
#include "nn/sequential.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nshd::nn {

struct TrainConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  /// Cosine-anneal the learning rate to lr*min_lr_fraction over the run.
  float min_lr_fraction = 0.05f;
  /// Stop early once training accuracy reaches this level (0 disables).
  float target_train_accuracy = 0.995f;
  std::uint64_t seed = 7;
  /// Divergence recovery: on a non-finite epoch loss or weight, roll back to
  /// the last finite epoch and retry that epoch with the learning rate
  /// scaled by divergence_backoff (bounded by max_divergence_retries).
  bool recover_divergence = true;
  std::int64_t max_divergence_retries = 3;
  float divergence_backoff = 0.5f;
  /// Batches the data::BatchPipeline assembles ahead of the training step;
  /// 0 fills synchronously, -1 reads NSHD_PREFETCH (default 1).  The batch
  /// stream is bitwise identical at every depth.
  int prefetch_depth = -1;
};

struct EpochStats {
  std::int64_t epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;
  double seconds = 0.0;
};

struct TrainReport {
  std::vector<EpochStats> epochs;  // only epochs run by this call
  double final_train_accuracy = 0.0;
  /// Number of rollback-and-retry recoveries performed.
  std::int64_t divergence_recoveries = 0;
  /// True when retries were exhausted; weights hold the last finite state.
  bool diverged = false;
  /// Epochs skipped because a resume checkpoint covered them.
  std::int64_t resumed_from_epoch = 0;
};

/// A resumable snapshot of a training run taken after a completed epoch.
/// Contains everything the loop needs to continue bitwise: model state
/// (params + running stats), optimizer state (momentum buffers), and the
/// schedule counters.  Convertible to a util::Checkpoint for disk.
struct TrainCheckpoint {
  std::int64_t epochs_done = 0;
  float lr_scale = 1.0f;  // accumulated divergence backoff
  std::int64_t recoveries = 0;
  std::vector<tensor::Tensor> model_state;
  std::vector<tensor::Tensor> optimizer_state;

  util::Checkpoint to_artifact(std::string key = {}) const;
  /// Rebuilds the snapshot; nullopt when the artifact's meta is not a
  /// trainer checkpoint.
  static std::optional<TrainCheckpoint> from_artifact(const util::Checkpoint& artifact);
};

/// Observes progress after each completed (finite) epoch; the checkpoint
/// argument resumes the run from exactly this point when passed back in.
using EpochHook = std::function<void(const EpochStats&, const TrainCheckpoint&)>;

/// Trains `model` (ending in a [N, K] logit layer) on `train` with SGD and a
/// cosine schedule.  When `resume` is given (and matches the model layout),
/// epochs [0, resume->epochs_done) are skipped and the rng/schedule streams
/// are fast-forwarded so the remaining epochs match an uninterrupted run
/// bitwise.  Fault site: "trainer.nan_loss" (injects a NaN batch loss).
TrainReport train_classifier(Sequential& model, const data::Dataset& train,
                             const TrainConfig& config,
                             const EpochHook& on_epoch = {},
                             const TrainCheckpoint* resume = nullptr);

/// Inference accuracy of `model` on `dataset` (batched, eval mode, via a
/// one-shot full-net Plan).  An empty dataset evaluates to 0.0.
double evaluate_classifier(Sequential& model, const data::Dataset& dataset,
                           std::int64_t batch_size = 64);

/// Plan-reusing overload for repeated evaluation of the same model.
double evaluate_classifier(Plan& plan, const data::Dataset& dataset,
                           std::int64_t batch_size = 64);

/// Full-model logits for every sample (eval mode), shape [N, K].
/// An empty dataset yields an empty tensor.
tensor::Tensor predict_logits(Sequential& model, const data::Dataset& dataset,
                              std::int64_t batch_size = 64);

/// Plan-reusing overload; batches run in parallel with per-worker
/// workspaces and write disjoint rows of the result.
tensor::Tensor predict_logits(Plan& plan, const data::Dataset& dataset,
                              std::int64_t batch_size = 64);

}  // namespace nshd::nn
