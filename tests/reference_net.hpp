// Independent reference forwards for the nn layers: the test oracle for the
// workspace kernels in src/nn.
//
// Every function here is a direct loop nest over NCHW ([N, C, H, W]) or
// [N, F] data that accumulates in double.  Weights and statistics are read
// only through the public layer API (params(), running_mean()/running_var(),
// the geometry getters and append_state), so nothing is shared with the code
// under test: no im2col, no GEMM, no SIMD, no workspace.  A bug in a kernel —
// a wrong tap offset, a dropped tail, an FMA contraction that rounds one copy
// differently — shows up as a distance from this reference instead of being
// reproduced by a twin that calls the same kernel.
//
// The reference is more precise than the float kernels, not bitwise equal to
// them: compare with rel_l2() and a stated tolerance.  Batch-norm layers are
// assumed to use the default epsilon (1e-5), which every model in the zoo
// does.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace nshd::reference {

using tensor::Shape;
using tensor::Tensor;

inline constexpr double kBatchNormEpsilon = 1e-5;

inline double activate(nn::Activation act, double x) {
  switch (act) {
    case nn::Activation::kReLU: return x > 0.0 ? x : 0.0;
    case nn::Activation::kReLU6: return x < 0.0 ? 0.0 : (x > 6.0 ? 6.0 : x);
    case nn::Activation::kSiLU: return x / (1.0 + std::exp(-x));
    case nn::Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return 0.0;
}

/// Output extent of a convolution window sweep.
inline std::int64_t out_dim(std::int64_t in, std::int64_t k, std::int64_t s,
                            std::int64_t pad) {
  return (in + 2 * pad - k) / s + 1;
}

/// Dense convolution; weight [O, I*K*K] in (i, kh, kw) order, optional bias.
inline Tensor conv2d(const Tensor& x, const float* weight, const float* bias,
                     std::int64_t out_c, std::int64_t k, std::int64_t stride,
                     std::int64_t pad) {
  const std::int64_t n = x.shape()[0], in_c = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh_n = out_dim(h, k, stride, pad);
  const std::int64_t ow_n = out_dim(w, k, stride, pad);
  Tensor y(Shape{n, out_c, oh_n, ow_n});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t o = 0; o < out_c; ++o)
      for (std::int64_t oh = 0; oh < oh_n; ++oh)
        for (std::int64_t ow = 0; ow < ow_n; ++ow) {
          double acc = bias != nullptr ? bias[o] : 0.0;
          for (std::int64_t i = 0; i < in_c; ++i)
            for (std::int64_t kh = 0; kh < k; ++kh)
              for (std::int64_t kw = 0; kw < k; ++kw) {
                const std::int64_t ih = oh * stride - pad + kh;
                const std::int64_t iw = ow * stride - pad + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
                acc += static_cast<double>(
                           weight[((o * in_c + i) * k + kh) * k + kw]) *
                       x[((b * in_c + i) * h + ih) * w + iw];
              }
          y[((b * out_c + o) * oh_n + oh) * ow_n + ow] = static_cast<float>(acc);
        }
  return y;
}

/// Depthwise convolution; weight [C, K*K].
inline Tensor depthwise(const Tensor& x, const float* weight, std::int64_t k,
                        std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.shape()[0], c_n = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh_n = out_dim(h, k, stride, pad);
  const std::int64_t ow_n = out_dim(w, k, stride, pad);
  Tensor y(Shape{n, c_n, oh_n, ow_n});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t c = 0; c < c_n; ++c)
      for (std::int64_t oh = 0; oh < oh_n; ++oh)
        for (std::int64_t ow = 0; ow < ow_n; ++ow) {
          double acc = 0.0;
          for (std::int64_t kh = 0; kh < k; ++kh)
            for (std::int64_t kw = 0; kw < k; ++kw) {
              const std::int64_t ih = oh * stride - pad + kh;
              const std::int64_t iw = ow * stride - pad + kw;
              if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
              acc += static_cast<double>(weight[(c * k + kh) * k + kw]) *
                     x[((b * c_n + c) * h + ih) * w + iw];
            }
          y[((b * c_n + c) * oh_n + oh) * ow_n + ow] = static_cast<float>(acc);
        }
  return y;
}

/// Eval-mode batch norm from running statistics.
inline Tensor batchnorm_eval(const Tensor& x, const Tensor& gamma,
                             const Tensor& beta, const Tensor& mean,
                             const Tensor& var) {
  const std::int64_t n = x.shape()[0], c_n = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  Tensor y(x.shape());
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t c = 0; c < c_n; ++c) {
      const double scale =
          gamma[c] / std::sqrt(static_cast<double>(var[c]) + kBatchNormEpsilon);
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c_n + c) * hw + i;
        y[at] = static_cast<float>((x[at] - static_cast<double>(mean[c])) *
                                       scale +
                                   beta[c]);
      }
    }
  return y;
}

inline Tensor activation(const Tensor& x, nn::Activation act) {
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i)
    y[i] = static_cast<float>(activate(act, x[i]));
  return y;
}

inline Tensor max_pool(const Tensor& x, std::int64_t k, std::int64_t stride) {
  const std::int64_t n = x.shape()[0], c_n = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh_n = (h - k) / stride + 1, ow_n = (w - k) / stride + 1;
  Tensor y(Shape{n, c_n, oh_n, ow_n});
  for (std::int64_t p = 0; p < n * c_n; ++p)
    for (std::int64_t oh = 0; oh < oh_n; ++oh)
      for (std::int64_t ow = 0; ow < ow_n; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t kh = 0; kh < k; ++kh)
          for (std::int64_t kw = 0; kw < k; ++kw)
            best = std::max(best, x[(p * h + oh * stride + kh) * w +
                                    ow * stride + kw]);
        y[(p * oh_n + oh) * ow_n + ow] = best;
      }
  return y;
}

inline Tensor global_avg_pool(const Tensor& x) {
  const std::int64_t n = x.shape()[0], c_n = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  Tensor y(Shape{n, c_n, 1, 1});
  for (std::int64_t p = 0; p < n * c_n; ++p) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) sum += x[p * hw + i];
    y[p] = static_cast<float>(sum / static_cast<double>(hw));
  }
  return y;
}

/// y = x W^T + b with W [out, in]; x is [N, in] (any trailing layout).
inline Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  const std::int64_t n = x.shape()[0], in = x.numel() / n;
  const std::int64_t out = weight.shape()[0];
  Tensor y(Shape{n, out});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t o = 0; o < out; ++o) {
      double acc = bias[o];
      for (std::int64_t i = 0; i < in; ++i)
        acc += static_cast<double>(weight[o * in + i]) * x[b * in + i];
      y[b * out + o] = static_cast<float>(acc);
    }
  return y;
}

/// Squeeze-excite: y = x * sigmoid(W2 act(W1 gap(x) + b1) + b2).
inline Tensor squeeze_excite(const Tensor& x, const Tensor& w1,
                             const Tensor& b1, const Tensor& w2,
                             const Tensor& b2, nn::Activation act) {
  const std::int64_t n = x.shape()[0], c_n = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  const std::int64_t reduced = w1.shape()[0];
  Tensor y(x.shape());
  std::vector<double> pooled(static_cast<std::size_t>(c_n));
  std::vector<double> hidden(static_cast<std::size_t>(reduced));
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < c_n; ++c) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) sum += x[(b * c_n + c) * hw + i];
      pooled[static_cast<std::size_t>(c)] = sum / static_cast<double>(hw);
    }
    for (std::int64_t r = 0; r < reduced; ++r) {
      double acc = b1[r];
      for (std::int64_t c = 0; c < c_n; ++c)
        acc += w1[r * c_n + c] * pooled[static_cast<std::size_t>(c)];
      hidden[static_cast<std::size_t>(r)] = activate(act, acc);
    }
    for (std::int64_t c = 0; c < c_n; ++c) {
      double acc = b2[c];
      for (std::int64_t r = 0; r < reduced; ++r)
        acc += w2[c * reduced + r] * hidden[static_cast<std::size_t>(r)];
      const double gate = activate(nn::Activation::kSigmoid, acc);
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c_n + c) * hw + i;
        y[at] = static_cast<float>(x[at] * gate);
      }
    }
  }
  return y;
}

/// Mobile inverted bottleneck, rebuilt from the block's config and its
/// append_state order: [expand conv, BN] (when expand_ratio != 1),
/// depthwise conv, BN, [SE w1, b1, w2, b2] (when use_se), project conv, BN;
/// plus the identity residual when the block has one.
inline Tensor mbconv(nn::MBConvBlock& block, const Tensor& x) {
  const nn::MBConvConfig& cfg = block.config();
  std::vector<Tensor*> state;
  block.append_state(state);
  std::size_t next = 0;
  const auto take = [&]() -> const Tensor& { return *state.at(next++); };
  const auto bn = [&](const Tensor& in) {
    const Tensor& gamma = take();
    const Tensor& beta = take();
    const Tensor& mean = take();
    const Tensor& var = take();
    return batchnorm_eval(in, gamma, beta, mean, var);
  };
  const std::int64_t expanded = cfg.in_channels * cfg.expand_ratio;

  Tensor h = x;
  if (cfg.expand_ratio != 1) {
    h = conv2d(h, take().data(), nullptr, expanded, 1, 1, 0);
    h = activation(bn(h), cfg.activation);
  }
  h = depthwise(h, take().data(), cfg.kernel, cfg.stride, cfg.kernel / 2);
  h = activation(bn(h), cfg.activation);
  if (cfg.use_se) {
    const Tensor& w1 = take();
    const Tensor& b1 = take();
    const Tensor& w2 = take();
    const Tensor& b2 = take();
    h = squeeze_excite(h, w1, b1, w2, b2, cfg.activation);
  }
  h = conv2d(h, take().data(), nullptr, cfg.out_channels, 1, 1, 0);
  h = bn(h);
  assert(next == state.size());
  if (block.has_residual())
    for (std::int64_t i = 0; i < h.numel(); ++i)
      h[i] = static_cast<float>(static_cast<double>(h[i]) + x[i]);
  return h;
}

/// Eval-mode reference forward of any layer the zoo builds.  SqueezeExcite
/// does not expose its mid activation, so a standalone SE layer is rejected
/// here; call squeeze_excite() with its activation instead (inside MBConv the
/// block config supplies it).
inline Tensor forward(nn::Layer& layer, const Tensor& x);

/// Reference outputs of layers [0, last] of `net`, one per top-level index.
inline std::vector<Tensor> forward_prefix(nn::Sequential& net, const Tensor& x,
                                          std::size_t last) {
  std::vector<Tensor> outs;
  Tensor h = x;
  for (std::size_t i = 0; i <= last; ++i) {
    h = forward(net.layer(i), h);
    outs.push_back(h);
  }
  return outs;
}

inline Tensor forward(nn::Layer& layer, const Tensor& x) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    if (seq->size() == 0) return x;
    return forward_prefix(*seq, x, seq->size() - 1).back();
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const std::vector<nn::Param*> p = conv->params();
    return conv2d(x, p[0]->value.data(),
                  conv->has_bias() ? p[1]->value.data() : nullptr,
                  conv->out_channels(), conv->kernel(), conv->stride(),
                  conv->pad());
  }
  if (auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(&layer))
    return depthwise(x, dw->params()[0]->value.data(), dw->kernel(),
                     dw->stride(), dw->pad());
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
    const std::vector<nn::Param*> p = bn->params();
    return batchnorm_eval(x, p[0]->value, p[1]->value, bn->running_mean(),
                          bn->running_var());
  }
  if (auto* act = dynamic_cast<nn::ActivationLayer*>(&layer))
    return activation(x, act->activation());
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer))
    return max_pool(x, pool->kernel(), pool->stride());
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr)
    return global_avg_pool(x);
  if (auto* fc = dynamic_cast<nn::Linear*>(&layer))
    return linear(x, fc->weight().value, fc->bias().value);
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr ||
      dynamic_cast<nn::Dropout*>(&layer) != nullptr)
    return x.reshaped(layer.output_shape(x.shape()));
  if (auto* block = dynamic_cast<nn::MBConvBlock*>(&layer))
    return mbconv(*block, x);
  throw std::invalid_argument("reference::forward: no reference for " +
                              layer.name());
}

/// ||got - want||_2 / ||want||_2 in double (0 when both are all-zero).
inline double rel_l2(const Tensor& got, const Tensor& want) {
  assert(got.numel() == want.numel());
  double diff = 0.0, norm = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double d = static_cast<double>(got[i]) - want[i];
    diff += d * d;
    norm += static_cast<double>(want[i]) * want[i];
  }
  if (norm == 0.0) return diff == 0.0 ? 0.0 : std::sqrt(diff);
  return std::sqrt(diff / norm);
}

}  // namespace nshd::reference
