// Fully-connected layer, plus Flatten and Dropout.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace nshd::nn {

/// y = W x + b with W of shape [out_features, in_features].
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kLinear; }
  std::string name() const override {
    return "Linear(" + std::to_string(in_features_) + "->" + std::to_string(out_features_) + ")";
  }
  std::int64_t macs_per_sample(const Shape& input_chw) const override {
    (void)input_chw;
    return in_features_ * out_features_;
  }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  std::int64_t in_features_, out_features_;
  Param weight_, bias_;
};

/// [N, C, H, W] (or [N, F]) -> [N, C*H*W].
class Flatten final : public Layer {
 public:
  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  /// Pure relabeling: copies grad_out into grad_in (shapes differ, bytes
  /// don't).  Reads nothing from `in` but its shape.
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  bool inplace_eval() const override { return true; }
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kFlatten; }
  std::string name() const override { return "Flatten"; }
};

/// Inverted dropout: scales kept activations by 1/(1-p) during training,
/// identity during inference.
///
/// The mask is a counter-based stream: element i of training step s is a pure
/// function mask_at(s, i) of (seed, s, i), where the seed is drawn once from
/// the construction-time Rng and the step counter lives in a checkpointable
/// tensor (append_state).  This makes masks bitwise reproducible at any
/// NSHD_THREADS and exactly resumable after kill-restore — with no stored
/// mask tensor at all.
class Dropout final : public Layer {
 public:
  Dropout(float probability, util::Rng& rng)
      : probability_(probability), seed_(rng.next_u64()) {}

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void forward_train_into(const TensorView& in, TensorView out,
                          Workspace& ws) override;
  /// Reads only grad_out (the mask is regenerated from the step counter).
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  void append_state(std::vector<Tensor*>& state) override {
    state.push_back(&step_state_);
  }
  bool inplace_eval() const override { return true; }
  Shape output_shape(const Shape& input) const override { return input; }
  LayerKind kind() const override { return LayerKind::kDropout; }
  std::string name() const override {
    return "Dropout(p=" + std::to_string(probability_) + ")";
  }

  float probability() const { return probability_; }

 private:
  float mask_at(std::uint64_t step, std::int64_t i) const;

  float probability_;
  std::uint64_t seed_;
  // Training-step counter, stored as a 1-element tensor so checkpoints carry
  // it (same pattern as Adam's step_count_).  Exact in float far beyond any
  // realistic step count.
  Tensor step_state_{Shape{1}};
  // Step the last training forward used, and its element count; backward
  // regenerates the identical mask from these.  cached_numel_ < 0 means the
  // last forward was inactive (eval or p <= 0), i.e. identity.
  std::uint64_t last_step_ = 0;
  std::int64_t cached_numel_ = -1;
};

}  // namespace nshd::nn
