// Pooling layers: MaxPool2d and global average pooling.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace nshd::nn {

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride)
      : kernel_(kernel), stride_(stride) {}

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kMaxPool; }
  std::string name() const override {
    return "MaxPool2d(k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) + ")";
  }

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::int64_t kernel_, stride_;
};

/// Global average pool: [N, C, H, W] -> [N, C, 1, 1].
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  /// Reads only in.shape(): the mean adjoint is data-independent.
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kAvgPool; }
  std::string name() const override { return "GlobalAvgPool"; }
};

}  // namespace nshd::nn
