#include "nn/blocks.hpp"

#include <cassert>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

SqueezeExcite::SqueezeExcite(std::int64_t channels, std::int64_t reduced,
                             Activation act, util::Rng& rng)
    : channels_(channels),
      reduced_(reduced),
      act_(act),
      w1_(Shape{reduced, channels}, "se.w1"),
      b1_(Shape{reduced}, "se.b1"),
      w2_(Shape{channels, reduced}, "se.w2"),
      b2_(Shape{channels}, "se.b2") {
  kaiming_normal(w1_.value, channels, rng);
  kaiming_normal(w2_.value, reduced, rng);
}

void SqueezeExcite::forward_into(const TensorView& in, TensorView out,
                                 Workspace& scratch) {
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  assert(out.numel() == in.numel());
  const std::int64_t batch = in.shape()[0];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];

  // The gate is fully computed from the input before the scale loop, so
  // running in place over `in` is safe.
  Workspace::Frame frame(scratch);
  float* pooled = scratch.alloc(batch * channels_);
  float* hidden = scratch.alloc(batch * reduced_);
  float* hidden_act = scratch.alloc(batch * reduced_);
  float* gate_pre = scratch.alloc(batch * channels_);
  float* gate = scratch.alloc(batch * channels_);

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane = in.data() + (n * channels_ + c) * hw;
      double sum = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) sum += plane[i];
      pooled[n * channels_ + c] = static_cast<float>(sum / hw);
    }
  }

  tensor::gemm_bt(pooled, w1_.value.data(), hidden, batch, channels_, reduced_);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t r = 0; r < reduced_; ++r)
      hidden[n * reduced_ + r] += b1_.value[r];

  for (std::int64_t i = 0; i < batch * reduced_; ++i)
    hidden_act[i] = activate(act_, hidden[i]);

  tensor::gemm_bt(hidden_act, w2_.value.data(), gate_pre, batch, reduced_,
                  channels_);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t c = 0; c < channels_; ++c)
      gate_pre[n * channels_ + c] += b2_.value[c];

  for (std::int64_t i = 0; i < batch * channels_; ++i)
    gate[i] = activate(Activation::kSigmoid, gate_pre[i]);

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float s = gate[n * channels_ + c];
      const float* in_plane = in.data() + (n * channels_ + c) * hw;
      float* out_plane = out.data() + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) out_plane[i] = in_plane[i] * s;
    }
  }
}

std::int64_t SqueezeExcite::scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const std::int64_t batch = input[0];
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  return batch * (3 * channels_ + 2 * reduced_) + 5 * align;
}

std::int64_t SqueezeExcite::train_scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const std::int64_t batch = input[0];
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  // Five recomputed forward intermediates plus five gradient buffers.
  return batch * (6 * channels_ + 4 * reduced_) + 10 * align;
}

void SqueezeExcite::backward_into(const TensorView& in,
                                  const TensorView& grad_out,
                                  TensorView grad_in, Workspace& ws) {
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  assert(grad_out.shape() == in.shape());
  assert(grad_in.shape() == in.shape());
  const std::int64_t batch = in.shape()[0];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];

  Workspace::Frame frame(ws);
  float* pooled = ws.alloc(batch * channels_);
  float* hidden = ws.alloc(batch * reduced_);
  float* hidden_act = ws.alloc(batch * reduced_);
  float* gate_pre = ws.alloc(batch * channels_);
  float* gate = ws.alloc(batch * channels_);
  float* grad_gate = ws.alloc(batch * channels_);
  float* grad_gate_pre = ws.alloc(batch * channels_);
  float* grad_hidden_act = ws.alloc(batch * reduced_);
  float* grad_hidden = ws.alloc(batch * reduced_);
  float* grad_pooled = ws.alloc(batch * channels_);

  // Recompute the forward intermediates with the exact forward_into
  // expressions — same inputs, same op order, so every value is bitwise equal
  // to what a cached-tensor implementation would have stored.
  util::parallel_for(0, batch * channels_, kTrainSampleGrain,
                     [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const float* plane = in.data() + p * hw;
      double sum = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) sum += plane[i];
      pooled[p] = static_cast<float>(sum / hw);
    }
  });
  tensor::gemm_bt(pooled, w1_.value.data(), hidden, batch, channels_, reduced_);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t r = 0; r < reduced_; ++r)
      hidden[n * reduced_ + r] += b1_.value[r];
  for (std::int64_t i = 0; i < batch * reduced_; ++i)
    hidden_act[i] = activate(act_, hidden[i]);
  tensor::gemm_bt(hidden_act, w2_.value.data(), gate_pre, batch, reduced_,
                  channels_);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t c = 0; c < channels_; ++c)
      gate_pre[n * channels_ + c] += b2_.value[c];
  for (std::int64_t i = 0; i < batch * channels_; ++i)
    gate[i] = activate(Activation::kSigmoid, gate_pre[i]);

  // y[n,c,i] = x[n,c,i] * s[n,c].
  // dL/dx gets the direct term here; the gate path adds more below.  One
  // (n, c) plane per iteration — single writer for gin and grad_gate.
  util::parallel_for(0, batch * channels_, kTrainSampleGrain,
                     [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const float s = gate[p];
      const float* gout = grad_out.data() + p * hw;
      const float* in_plane = in.data() + p * hw;
      float* gin = grad_in.data() + p * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        gin[i] = gout[i] * s;
        acc += static_cast<double>(gout[i]) * in_plane[i];
      }
      grad_gate[p] = static_cast<float>(acc);
    }
  });

  // Through the sigmoid.
  for (std::int64_t i = 0; i < batch * channels_; ++i)
    grad_gate_pre[i] =
        grad_gate[i] * activate_grad(Activation::kSigmoid, gate_pre[i]);

  // Expand FC: gate_pre = hidden_act * W2^T + b2.
  tensor::gemm_at(grad_gate_pre, hidden_act, w2_.grad.data(), channels_,
                  batch, reduced_, /*accumulate=*/true);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t c = 0; c < channels_; ++c)
      b2_.grad[c] += grad_gate_pre[n * channels_ + c];

  tensor::gemm(grad_gate_pre, w2_.value.data(), grad_hidden_act, batch,
               channels_, reduced_);

  // Through the mid activation.
  for (std::int64_t i = 0; i < batch * reduced_; ++i)
    grad_hidden[i] = grad_hidden_act[i] * activate_grad(act_, hidden[i]);

  // Reduce FC: hidden = pooled * W1^T + b1.
  tensor::gemm_at(grad_hidden, pooled, w1_.grad.data(), reduced_, batch,
                  channels_, /*accumulate=*/true);
  for (std::int64_t n = 0; n < batch; ++n)
    for (std::int64_t r = 0; r < reduced_; ++r)
      b1_.grad[r] += grad_hidden[n * reduced_ + r];

  tensor::gemm(grad_hidden, w1_.value.data(), grad_pooled, batch, reduced_,
               channels_);

  // Pool adjoint: broadcast back over HW.
  const float inv = 1.0f / static_cast<float>(hw);
  util::parallel_for(0, batch * channels_, kTrainSampleGrain,
                     [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const float g = grad_pooled[p] * inv;
      float* gin = grad_in.data() + p * hw;
      for (std::int64_t i = 0; i < hw; ++i) gin[i] += g;
    }
  });
}

std::int64_t SqueezeExcite::macs_per_sample(const Shape& input_chw) const {
  (void)input_chw;
  // Two small FCs plus the channel-wise scale.
  const std::int64_t hw = input_chw.rank() == 3 ? input_chw[1] * input_chw[2] : 1;
  return channels_ * reduced_ * 2 + channels_ * hw;
}

MBConvBlock::MBConvBlock(const MBConvConfig& config, util::Rng& rng)
    : config_(config),
      residual_(config.stride == 1 && config.in_channels == config.out_channels) {
  const std::int64_t expanded = config.in_channels * config.expand_ratio;
  if (config.expand_ratio != 1) {
    body_.emplace<Conv2d>(config.in_channels, expanded, 1, 1, 0, /*bias=*/false, rng);
    body_.emplace<BatchNorm2d>(expanded);
    body_.emplace<ActivationLayer>(config.activation);
  }
  body_.emplace<DepthwiseConv2d>(expanded, config.kernel, config.stride,
                                 config.kernel / 2, rng);
  body_.emplace<BatchNorm2d>(expanded);
  body_.emplace<ActivationLayer>(config.activation);
  if (config.use_se) {
    const std::int64_t reduced =
        std::max<std::int64_t>(1, expanded / config.se_reduction);
    body_.emplace<SqueezeExcite>(expanded, reduced, config.activation, rng);
  }
  body_.emplace<Conv2d>(expanded, config.out_channels, 1, 1, 0, /*bias=*/false, rng);
  body_.emplace<BatchNorm2d>(config.out_channels);
}

void MBConvBlock::forward_into(const TensorView& in, TensorView out,
                               Workspace& scratch) {
  // The body never writes `in` (its first layer is a conv, and the scheduler
  // treats the caller's input as read-only), so the residual source survives.
  body_.forward_into(in, out, scratch);
  if (residual_) {
    assert(out.shape() == in.shape());
    float* po = out.data();
    const float* pi = in.data();
    const std::int64_t n = out.numel();
    for (std::int64_t i = 0; i < n; ++i) po[i] += pi[i];
  }
}

std::int64_t MBConvBlock::scratch_floats(const Shape& input) const {
  return body_.scratch_floats(input);
}

std::int64_t MBConvBlock::train_scratch_floats(const Shape& input) const {
  return body_.train_scratch_floats(input);
}

std::int64_t MBConvBlock::train_pinned_floats(const Shape& input) const {
  return body_.train_pinned_floats(input);
}

void MBConvBlock::forward_train_into(const TensorView& in, TensorView out,
                                     Workspace& ws) {
  // The body pins its boundary activations (including `in`) on its tape;
  // backward_into must later receive this same `in`.
  body_.forward_train_into(in, out, ws);
  if (residual_) {
    assert(out.shape() == in.shape());
    float* po = out.data();
    const float* pi = in.data();
    util::parallel_for(0, out.numel(), kTrainElemGrain,
                       [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) po[i] += pi[i];
    });
  }
}

void MBConvBlock::backward_into(const TensorView& in,
                                const TensorView& grad_out,
                                TensorView grad_in, Workspace& ws) {
  body_.backward_into(in, grad_out, grad_in, ws);
  if (residual_) {
    // Skip-connection adjoint: one add per element, chunk-safe.
    float* pg = grad_in.data();
    const float* po = grad_out.data();
    util::parallel_for(0, grad_in.numel(), kTrainElemGrain,
                       [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) pg[i] += po[i];
    });
  }
}

Shape MBConvBlock::output_shape(const Shape& input) const {
  return body_.output_shape(input);
}

std::string MBConvBlock::name() const {
  return std::string(config_.use_se ? "MBConv" : "InvertedResidual") + "(" +
         std::to_string(config_.in_channels) + "->" +
         std::to_string(config_.out_channels) +
         ", e=" + std::to_string(config_.expand_ratio) +
         ", s=" + std::to_string(config_.stride) + ")";
}

}  // namespace nshd::nn
