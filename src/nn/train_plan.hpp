// Shape-inferred execution plan for one fused training step.
//
// A TrainingPlan binds a Sequential to a fixed per-sample input shape and a
// maximum batch, sizes one workspace for the whole forward+backward schedule
// (pinned activation tape, logit/gradient buffers, per-layer training
// scratch), and then runs step() — forward_train_into, fused softmax-CE, and
// backward_into — with zero heap allocations on the hot path.  Buffers
// ping-pong through the leased arena exactly as in nn::Plan; the
// saved-for-backward activations are pinned for the lifetime of the step.
//
// Gradients are accumulated with the deterministic chunked scheme described
// in DESIGN.md ("Planned training & gradient accumulation"): results are
// invariant to NSHD_THREADS.  This is the only training path;
// nn::train_classifier runs one step() per batch.
//
// Unlike nn::Plan, a TrainingPlan is NOT thread-safe: training mutates
// layer state (batch-norm statistics, dropout streams, parameter grads), so
// there is exactly one workspace and steps must be serialized.
//
// Fault site: "train.grad_nan" poisons the logit gradient before backward,
// exercising the trainer's divergence rollback through the planned path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace nshd::nn {

/// Loss/accuracy of one planned training step (loss is the batch mean).
struct TrainStepStats {
  double loss = 0.0;
  std::int64_t correct = 0;
};

class TrainingPlan {
 public:
  /// Plans full fwd+bwd over `net` for per-sample CHW shape `sample_chw`.
  /// `max_batch` sizes the reserved workspace; smaller final batches are
  /// fine, larger ones grow the arena for the call.  The net must end in a
  /// rank-2 [N, K] logit producer and must outlive the plan; step() mutates
  /// the net (grads, batch-norm stats), so keep steps serialized.
  TrainingPlan(Sequential& net, Shape sample_chw, std::int64_t max_batch = 32);

  TrainingPlan(const TrainingPlan&) = delete;
  TrainingPlan& operator=(const TrainingPlan&) = delete;

  const Shape& sample_chw() const { return sample_chw_; }
  std::int64_t max_batch() const { return max_batch_; }
  std::int64_t classes() const { return classes_; }

  /// One fused training step over images = [N, C, H, W]: training forward,
  /// softmax cross-entropy (loss + grad in workspace memory), backward with
  /// gradient accumulation into the net's params.  Does NOT run the
  /// optimizer — the caller steps it (see train_classifier).  Throws
  /// TrainingStateError on a shape/label-count mismatch.
  TrainStepStats step(const TensorView& images,
                      const std::vector<std::int64_t>& labels);

  /// Shape-inferred workspace budget reserved at construction.
  std::size_t planned_workspace_bytes() const {
    return planned_floats_ * sizeof(float);
  }
  /// Observed high-water workspace usage across all steps.
  std::size_t peak_workspace_bytes() const { return ws_.peak_bytes(); }

 private:
  Sequential* net_;
  Shape sample_chw_;
  std::int64_t max_batch_;
  std::int64_t classes_ = 0;
  std::size_t planned_floats_ = 0;
  Workspace ws_;
};

}  // namespace nshd::nn
