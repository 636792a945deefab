#include "nn/batchnorm.hpp"

#include <cassert>
#include <cmath>

#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

namespace {

using tensor::simd::kWidth;
using tensor::simd::VF;

/// One pass over a plane: (sum x, sum x*x) via two 2-chain float vector
/// accumulators with a fixed reduction schedule plus a scalar tail.  The
/// caller combines per-plane partials in double, so the per-channel result
/// is deterministic and NSHD_THREADS-invariant (channels shard 1:1).
inline void plane_moments(const float* x, std::int64_t n, float& sum_out,
                          float& sq_out) {
  VF s0 = tensor::simd::vzero(), s1 = tensor::simd::vzero();
  VF q0 = tensor::simd::vzero(), q1 = tensor::simd::vzero();
  std::int64_t i = 0;
  for (; i + 2 * kWidth <= n; i += 2 * kWidth) {
    const VF a = tensor::simd::vload(x + i);
    const VF b = tensor::simd::vload(x + i + kWidth);
    s0 = tensor::simd::vadd(s0, a);
    s1 = tensor::simd::vadd(s1, b);
    q0 = tensor::simd::vfmadd(a, a, q0);
    q1 = tensor::simd::vfmadd(b, b, q1);
  }
  float s = tensor::simd::vhsum(tensor::simd::vadd(s0, s1));
  float q = tensor::simd::vhsum(tensor::simd::vadd(q0, q1));
  for (; i < n; ++i) {
    s += x[i];
    q += x[i] * x[i];
  }
  sum_out = s;
  sq_out = q;
}

/// One pass: (sum dy, dot(dy, x)) — the two reductions the batch-norm
/// backward needs, since sum(dy * x_hat) = inv_std * (dot(dy,x) - mean*sum(dy)).
inline void plane_grad_moments(const float* dy, const float* x, std::int64_t n,
                               float& sum_out, float& dot_out) {
  VF s0 = tensor::simd::vzero(), s1 = tensor::simd::vzero();
  VF d0 = tensor::simd::vzero(), d1 = tensor::simd::vzero();
  std::int64_t i = 0;
  for (; i + 2 * kWidth <= n; i += 2 * kWidth) {
    const VF g0 = tensor::simd::vload(dy + i);
    const VF g1 = tensor::simd::vload(dy + i + kWidth);
    s0 = tensor::simd::vadd(s0, g0);
    s1 = tensor::simd::vadd(s1, g1);
    d0 = tensor::simd::vfmadd(g0, tensor::simd::vload(x + i), d0);
    d1 = tensor::simd::vfmadd(g1, tensor::simd::vload(x + i + kWidth), d1);
  }
  float s = tensor::simd::vhsum(tensor::simd::vadd(s0, s1));
  float d = tensor::simd::vhsum(tensor::simd::vadd(d0, d1));
  for (; i < n; ++i) {
    s += dy[i];
    d += dy[i] * x[i];
  }
  sum_out = s;
  dot_out = d;
}

/// out[i] = a * x[i] + b.
inline void plane_affine(const float* x, float* out, std::int64_t n, float a,
                         float b) {
  const VF va = tensor::simd::vset1(a), vb = tensor::simd::vset1(b);
  std::int64_t i = 0;
  for (; i + kWidth <= n; i += kWidth)
    tensor::simd::vstore(out + i, tensor::simd::vfmadd(va, tensor::simd::vload(x + i), vb));
  for (; i < n; ++i) out[i] = a * x[i] + b;
}

/// out[i] = a * dy[i] + b * x[i] + c.
inline void plane_affine2(const float* dy, const float* x, float* out,
                          std::int64_t n, float a, float b, float c) {
  const VF va = tensor::simd::vset1(a), vb = tensor::simd::vset1(b);
  const VF vc = tensor::simd::vset1(c);
  std::int64_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    VF acc = tensor::simd::vfmadd(va, tensor::simd::vload(dy + i), vc);
    acc = tensor::simd::vfmadd(vb, tensor::simd::vload(x + i), acc);
    tensor::simd::vstore(out + i, acc);
  }
  for (; i < n; ++i) out[i] = (a * dy[i] + c) + b * x[i];
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Shape{channels}, "bn.gamma"),
      beta_(Shape{channels}, "bn.beta"),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}),
      saved_mean_(Shape{channels}),
      saved_inv_std_(Shape{channels}) {
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

void BatchNorm2d::forward_train_impl(const float* in, float* out,
                                     std::int64_t batch, std::int64_t hw) {
  const std::int64_t plane_count = batch * hw;
  // One channel per iteration: statistics, running-stat update and the
  // normalize write all touch only channel c, so sharding over channels is
  // bitwise NSHD_THREADS-invariant (per-channel math stays serial).
  util::parallel_for(0, channels_, 1, [&](std::int64_t cb, std::int64_t ce) {
    for (std::int64_t c = cb; c < ce; ++c) {
      // Vectorized per-plane moments, combined across the batch in double.
      double sum = 0.0, sq_sum = 0.0;
      for (std::int64_t n = 0; n < batch; ++n) {
        float s, q;
        plane_moments(in + (n * channels_ + c) * hw, hw, s, q);
        sum += s;
        sq_sum += q;
      }
      const auto mean_c = static_cast<float>(sum / plane_count);
      auto var_c = static_cast<float>(sq_sum / plane_count -
                                      mean_c * static_cast<double>(mean_c));
      if (var_c < 0.0f) var_c = 0.0f;
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean_c;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var_c;
      const float inv_std = 1.0f / std::sqrt(var_c + epsilon_);
      saved_mean_[c] = mean_c;
      saved_inv_std_[c] = inv_std;
      // Normalize as one affine pass: g*(x - mean)*inv_std + b = a*x + b'.
      const float a = gamma_.value[c] * inv_std;
      const float b = beta_.value[c] - a * mean_c;
      for (std::int64_t n = 0; n < batch; ++n) {
        plane_affine(in + (n * channels_ + c) * hw,
                     out + (n * channels_ + c) * hw, hw, a, b);
      }
    }
  });
}

void BatchNorm2d::forward_into(const TensorView& in, TensorView out,
                               Workspace& scratch) {
  (void)scratch;
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  assert(out.shape() == in.shape());
  const std::int64_t batch = in.shape()[0];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];

  // Eval normalization: running statistics only, safe in-place because each
  // element is read once before being written.
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float mean_c = running_mean_[c];
    const float var_c = running_var_[c];
    const float inv_std = 1.0f / std::sqrt(var_c + epsilon_);
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* in_plane = in.data() + (n * channels_ + c) * hw;
      float* out_plane = out.data() + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const float x_hat = (in_plane[i] - mean_c) * inv_std;
        out_plane[i] = g * x_hat + b;
      }
    }
  }
}

void BatchNorm2d::forward_train_into(const TensorView& in, TensorView out,
                                     Workspace& ws) {
  (void)ws;
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  assert(out.shape() == in.shape());
  forward_train_impl(in.data(), out.data(), in.shape()[0],
                     in.shape()[2] * in.shape()[3]);
}

void BatchNorm2d::backward_into(const TensorView& in,
                                const TensorView& grad_out, TensorView grad_in,
                                Workspace& ws) {
  (void)ws;
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  assert(grad_out.shape() == in.shape());
  assert(grad_in.shape() == in.shape());
  const std::int64_t batch = in.shape()[0];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];
  const auto m = static_cast<float>(batch * hw);

  // Nothing is cached beyond saved_mean_/saved_inv_std_: the reductions use
  // sum(dy * x_hat) = inv_std * (dot(dy, x) - mean * sum(dy)) so x_hat is
  // never materialized, and dx folds into one two-operand affine pass.  One
  // channel per iteration (single writer for gamma/beta grads and the
  // channel's dx planes) keeps the shard thread-invariant.
  util::parallel_for(0, channels_, 1, [&](std::int64_t cb, std::int64_t ce) {
    for (std::int64_t c = cb; c < ce; ++c) {
      const float mean_c = saved_mean_[c];
      const float inv_std = saved_inv_std_[c];
      double sum_dy = 0.0, dot_dy_x = 0.0;
      for (std::int64_t n = 0; n < batch; ++n) {
        float s, d;
        plane_grad_moments(grad_out.data() + (n * channels_ + c) * hw,
                           in.data() + (n * channels_ + c) * hw, hw, s, d);
        sum_dy += s;
        dot_dy_x += d;
      }
      const double sum_dy_xhat =
          static_cast<double>(inv_std) *
          (dot_dy_x - static_cast<double>(mean_c) * sum_dy);
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);

      // dx = (g*inv_std/m) * (m*dy - sum(dy) - x_hat*sum(dy*x_hat))
      //    = A*dy + B*x + C  with x_hat = (x - mean)*inv_std folded in.
      const float scale = gamma_.value[c] * inv_std / m;
      const auto sdy = static_cast<float>(sum_dy);
      const auto sdyx = static_cast<float>(sum_dy_xhat);
      const float ca = scale * m;
      const float cb2 = -scale * sdyx * inv_std;
      const float cc = scale * (sdyx * inv_std * mean_c - sdy);
      for (std::int64_t n = 0; n < batch; ++n) {
        plane_affine2(grad_out.data() + (n * channels_ + c) * hw,
                      in.data() + (n * channels_ + c) * hw,
                      grad_in.data() + (n * channels_ + c) * hw, hw, ca, cb2,
                      cc);
      }
    }
  });
}

std::vector<Param*> BatchNorm2d::params() { return {&gamma_, &beta_}; }

}  // namespace nshd::nn
