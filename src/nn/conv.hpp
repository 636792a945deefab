// Convolution layers: dense Conv2d (im2col + GEMM) and DepthwiseConv2d.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace nshd::nn {

/// Standard 2-D convolution, NCHW activations, OIHW weights, square kernel.
class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         bool bias, util::Rng& rng);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  std::int64_t scratch_floats(const Shape& input) const override;
  std::int64_t train_scratch_floats(const Shape& input) const override;
  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kConv; }
  std::string name() const override;
  std::int64_t macs_per_sample(const Shape& input_chw) const override;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  bool has_bias() const { return has_bias_; }

 private:
  tensor::ConvGeometry geometry(std::int64_t in_h, std::int64_t in_w) const;

  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [O, I*KH*KW] flattened for direct GEMM use
  Param bias_;    // [O]
};

/// Depthwise 2-D convolution (groups == channels), weights [C, KH*KW].
class DepthwiseConv2d final : public Layer {
 public:
  DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad, util::Rng& rng);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;
  std::int64_t train_scratch_floats(const Shape& input) const override;
  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  LayerKind kind() const override { return LayerKind::kDepthwiseConv; }
  std::string name() const override;
  std::int64_t macs_per_sample(const Shape& input_chw) const override;

  std::int64_t channels() const { return channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  std::int64_t channels_, kernel_, stride_, pad_;
  Param weight_;  // [C, KH*KW]
};

}  // namespace nshd::nn
