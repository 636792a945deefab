// Activation layers: ReLU (VGG), ReLU6 (MobileNetV2), SiLU/swish
// (EfficientNet) and Sigmoid (squeeze-excitation gate).
#pragma once

#include "nn/layer.hpp"

namespace nshd::nn {

enum class Activation { kReLU, kReLU6, kSiLU, kSigmoid };

const char* to_string(Activation act);

class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(Activation act) : act_(act) {}

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  bool inplace_eval() const override { return true; }
  Shape output_shape(const Shape& input) const override { return input; }
  LayerKind kind() const override { return LayerKind::kActivation; }
  std::string name() const override { return to_string(act_); }

  Activation activation() const { return act_; }

 private:
  Activation act_;
};

/// Scalar activation evaluations, shared with SE-block internals.
float activate(Activation act, float x);
float activate_grad(Activation act, float x);

}  // namespace nshd::nn
