// Shape-inferred execution plan for batched eval inference.
//
// An InferencePlan binds a Sequential prefix ([0, last_layer]) to a fixed
// per-sample input shape.  Construction runs shape inference once and sizes
// a workspace budget (ping-pong slabs + the largest per-layer scratch, see
// Sequential::scratch_floats_to); run_batch then executes the whole prefix
// without a single heap allocation on the hot path.  Plans are safe to call
// from multiple threads concurrently: each run_batch leases a Workspace from
// an internal pool (one per concurrent caller) and all layer forward_into
// implementations are mutation-free in eval mode.
//
// Every f32 inference path in the repo (feature extraction, evaluation,
// logits, serving) runs through a plan or Sequential::forward_into_to, so
// each layer's forward_into is the one eval kernel; tests check it against an
// independent direct-loop reference (tests/reference_net.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/sequential.hpp"

namespace nshd::nn {

class InferencePlan {
 public:
  /// Plans layers [0, last_layer] of `net` for per-sample CHW shape
  /// `sample_chw`.  `max_batch` only sizes the pre-reserved workspaces;
  /// run_batch accepts any batch.  A batch larger than max_batch grows its
  /// leased arena for the call, and that oversized lease is then released
  /// rather than pooled, so one burst never inflates steady-state memory.
  /// The net must outlive the plan and must not be mutated (trained)
  /// while plans over it are in use.
  InferencePlan(Sequential& net, Shape sample_chw, std::size_t last_layer,
                std::int64_t max_batch = 32);

  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  const Shape& sample_chw() const { return sample_chw_; }
  std::size_t last_layer() const { return last_layer_; }
  std::int64_t max_batch() const { return max_batch_; }

  /// Output shape for a batch of `n` samples (batch axis replaces dim 0 of
  /// the inferred single-sample output shape).
  Shape output_shape(std::int64_t n) const;

  /// Per-sample output element count.
  std::int64_t out_features() const { return out_numel_per_sample_; }

  /// Runs eval inference on `in` = [N, C, H, W], writing into `out`
  /// (numel must equal output_shape(N).numel()).  Thread-safe.
  void run_batch(const TensorView& in, TensorView out);

  /// Allocating convenience wrapper; the output Tensor is still produced by
  /// the planned (workspace) path.
  Tensor run_batch(const Tensor& in);

  /// Shape-inferred workspace budget reserved per leased workspace.
  std::size_t planned_workspace_bytes() const {
    return planned_floats_ * sizeof(float);
  }

  /// Observed high-water usage across all workspaces this plan has leased.
  std::size_t peak_workspace_bytes() const;

  /// Number of workspaces alive (pooled + leased).  Tracks the maximum
  /// concurrency seen, minus oversized leases that were released.
  std::size_t workspace_count() const;

 private:
  std::unique_ptr<Workspace> acquire_workspace();
  void release_workspace(std::unique_ptr<Workspace> ws);

  Sequential* net_;
  Shape sample_chw_;
  std::size_t last_layer_;
  std::int64_t max_batch_;
  Shape out_shape_one_;  // output shape for batch == 1
  std::int64_t out_numel_per_sample_ = 0;
  std::size_t planned_floats_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> free_;  // idle leases
  std::size_t total_workspaces_ = 0;
  std::size_t peak_floats_ = 0;  // folded in as leases return
};

}  // namespace nshd::nn
