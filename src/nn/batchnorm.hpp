// Batch normalization over the channel axis of NCHW activations.
#pragma once

#include "nn/layer.hpp"

namespace nshd::nn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void forward_train_into(const TensorView& in, TensorView out,
                          Workspace& ws) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  bool inplace_eval() const override { return true; }
  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override { return input; }
  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  std::string name() const override {
    return "BatchNorm2d(" + std::to_string(channels_) + ")";
  }

  std::int64_t channels() const { return channels_; }
  /// Running statistics, exposed for serialization.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  void append_state(std::vector<Tensor*>& state) override {
    state.push_back(&gamma_.value);
    state.push_back(&beta_.value);
    state.push_back(&running_mean_);
    state.push_back(&running_var_);
  }

 private:
  /// Training forward behind forward_train_into(): computes batch statistics into saved_mean_/saved_inv_std_, folds them into the
  /// running stats, and normalizes.  Channels are independent (one writer per
  /// channel everywhere), so the per-channel shard is bitwise invariant.
  void forward_train_impl(const float* in, float* out, std::int64_t batch,
                          std::int64_t hw);

  std::int64_t channels_;
  float momentum_, epsilon_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Batch statistics of the last training forward; backward recomputes
  // x_hat = (x - mean) * inv_std from them with the exact forward expression,
  // so no [N, C, H, W] normalized cache is needed.
  Tensor saved_mean_, saved_inv_std_;
};

}  // namespace nshd::nn
