// Composite building blocks for the MobileNetV2 / EfficientNet model zoo:
//   * SqueezeExcite  — channel-attention gate (EfficientNet MBConv).
//   * MBConvBlock    — expansion 1x1 / depthwise 3x3 / (SE) / project 1x1
//                      with optional residual; with expand_ratio handling and
//                      ReLU6 this doubles as MobileNetV2's InvertedResidual.
//
// Blocks own an internal Sequential; residual and SE wiring are handled in
// the block's own forward_into/backward_into.
#pragma once

#include "nn/activation.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace nshd::nn {

/// Squeeze-and-Excitation: s = sigmoid(W2 act(W1 gap(x))); y = x * s.
class SqueezeExcite final : public Layer {
 public:
  SqueezeExcite(std::int64_t channels, std::int64_t reduced, Activation act,
                util::Rng& rng);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  /// Recomputes the pooled/hidden/gate intermediates from `in` with the
  /// exact forward expressions (bitwise equal to caching them), then runs
  /// the gradient math — so training needs no [N, C]-sized caches at all.
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  std::int64_t scratch_floats(const Shape& input) const override;
  std::int64_t train_scratch_floats(const Shape& input) const override;
  bool inplace_eval() const override { return true; }
  std::vector<Param*> params() override { return {&w1_, &b1_, &w2_, &b2_}; }
  Shape output_shape(const Shape& input) const override { return input; }
  LayerKind kind() const override { return LayerKind::kBlock; }
  std::string name() const override {
    return "SqueezeExcite(" + std::to_string(channels_) + "->" + std::to_string(reduced_) + ")";
  }
  std::int64_t macs_per_sample(const Shape& input_chw) const override;

 private:
  std::int64_t channels_, reduced_;
  Activation act_;
  Param w1_, b1_;  // [reduced, channels], [reduced]
  Param w2_, b2_;  // [channels, reduced], [channels]
};

struct MBConvConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t expand_ratio = 1;   // 1 disables the expansion conv
  std::int64_t kernel = 3;         // depthwise kernel
  std::int64_t stride = 1;
  bool use_se = false;             // EfficientNet: true; MobileNetV2: false
  std::int64_t se_reduction = 4;   // SE bottleneck = expanded / se_reduction
  Activation activation = Activation::kSiLU;  // ReLU6 for MobileNetV2
};

/// Mobile inverted bottleneck block.  Residual applies when stride==1 and
/// in_channels==out_channels (the projection output is linear, per both
/// papers).
class MBConvBlock final : public Layer {
 public:
  MBConvBlock(const MBConvConfig& config, util::Rng& rng);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void forward_train_into(const TensorView& in, TensorView out,
                          Workspace& ws) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  std::int64_t scratch_floats(const Shape& input) const override;
  std::int64_t train_scratch_floats(const Shape& input) const override;
  std::int64_t train_pinned_floats(const Shape& input) const override;
  std::vector<Param*> params() override { return body_.params(); }
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kBlock; }
  std::string name() const override;
  std::int64_t macs_per_sample(const Shape& input_chw) const override {
    return body_.macs_per_sample(input_chw);
  }

  const MBConvConfig& config() const { return config_; }
  bool has_residual() const { return residual_; }

  void append_state(std::vector<Tensor*>& state) override {
    body_.append_state(state);
  }

 private:
  MBConvConfig config_;
  bool residual_;
  Sequential body_;
};

}  // namespace nshd::nn
