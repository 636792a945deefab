#include "nn/linear.hpp"

#include <cassert>
#include <cstring>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}, "linear.weight"),
      bias_(Shape{out_features}, "linear.bias") {
  kaiming_normal(weight_.value, in_features, rng);
}

void Linear::forward_into(const TensorView& in, TensorView out,
                          Workspace& scratch) {
  (void)scratch;
  assert(in.shape().rank() == 2 && in.shape()[1] == in_features_);
  const std::int64_t batch = in.shape()[0];
  assert(out.shape() == Shape({batch, out_features_}));

  tensor::gemm_bt(in.data(), weight_.value.data(), out.data(), batch,
                  in_features_, out_features_);
  for (std::int64_t n = 0; n < batch; ++n) {
    float* row = out.data() + n * out_features_;
    for (std::int64_t o = 0; o < out_features_; ++o) row[o] += bias_.value[o];
  }
}

void Linear::backward_into(const TensorView& in, const TensorView& grad_out,
                           TensorView grad_in, Workspace& ws) {
  (void)ws;
  assert(in.shape().rank() == 2 && in.shape()[1] == in_features_);
  const std::int64_t batch = in.shape()[0];
  assert(grad_out.shape() == Shape({batch, out_features_}));
  assert(grad_in.shape() == in.shape());
  const float* gout = grad_out.data();

  // dW[out, in] += gout[batch, out]^T * in[batch, in] — the gemm kernel's
  // internal order is fixed, so the accumulation is thread-invariant.
  tensor::gemm_at(gout, in.data(), weight_.grad.data(), out_features_, batch,
                  in_features_, /*accumulate=*/true);
  // Bias grads: chunk over output features (each o written by one chunk
  // only); the inner n-ascending loop keeps the per-element add order of the
  // serial n-outer/o-inner loop, so sums are bitwise identical to it.
  util::parallel_for(0, out_features_, kTrainSampleGrain,
                     [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      for (std::int64_t n = 0; n < batch; ++n)
        bias_.grad[o] += gout[n * out_features_ + o];
    }
  });
  // dX[batch, in] = gout[batch, out] * W[out, in]
  tensor::gemm(gout, weight_.value.data(), grad_in.data(), batch,
               out_features_, in_features_);
}

Shape Linear::output_shape(const Shape& input) const {
  assert(input.rank() == 2);
  return Shape{input[0], out_features_};
}

void Flatten::forward_into(const TensorView& in, TensorView out,
                           Workspace& scratch) {
  (void)scratch;
  assert(out.numel() == in.numel());
  // Pure relabeling; only the bytes move (or stay, when run in place).
  if (out.data() == in.data() || in.numel() == 0) return;
  std::memcpy(out.data(), in.data(),
              static_cast<std::size_t>(in.numel()) * sizeof(float));
}

void Flatten::backward_into(const TensorView& in, const TensorView& grad_out,
                            TensorView grad_in, Workspace& ws) {
  (void)ws;
  (void)in;
  assert(grad_in.numel() == grad_out.numel());
  if (grad_out.numel() == 0) return;
  std::memcpy(grad_in.data(), grad_out.data(),
              static_cast<std::size_t>(grad_out.numel()) * sizeof(float));
}

Shape Flatten::output_shape(const Shape& input) const {
  return Shape{input[0], input.numel() / input[0]};
}

float Dropout::mask_at(std::uint64_t step, std::int64_t i) const {
  // Counter-based stream: one splitmix64 mix of (seed, step, element).  The
  // multipliers decorrelate the step and element axes; splitmix64 then
  // whitens the combined counter.  Matches util::Rng's bernoulli convention
  // (u < p drops) with a 53-bit uniform.
  std::uint64_t s = seed_ ^ (step * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ULL);
  const std::uint64_t z = util::splitmix64(s);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < static_cast<double>(probability_)
             ? 0.0f
             : 1.0f / (1.0f - probability_);
}

void Dropout::forward_into(const TensorView& in, TensorView out,
                           Workspace& scratch) {
  (void)scratch;
  assert(out.numel() == in.numel());
  // Inference dropout is the identity.  Leaves the mask stream untouched so
  // concurrent plan workers never race on layer state.
  if (out.data() == in.data() || in.numel() == 0) return;
  std::memcpy(out.data(), in.data(),
              static_cast<std::size_t>(in.numel()) * sizeof(float));
}

void Dropout::forward_train_into(const TensorView& in, TensorView out,
                                 Workspace& ws) {
  (void)ws;
  assert(out.numel() == in.numel());
  if (probability_ <= 0.0f) {
    cached_numel_ = -1;
    forward_into(in, out, ws);
    return;
  }
  // Applies the step's mask and advances the checkpointed counter.  One
  // write per element; mask_at is a pure function of (step, i), so chunking
  // over elements is bitwise thread-invariant.
  last_step_ = static_cast<std::uint64_t>(step_state_[0]);
  cached_numel_ = in.numel();
  const std::uint64_t step = last_step_;
  const float* src = in.data();
  float* dst = out.data();
  util::parallel_for(0, in.numel(), kTrainElemGrain,
                     [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) dst[i] = src[i] * mask_at(step, i);
  });
  step_state_[0] = static_cast<float>(last_step_ + 1);
}

void Dropout::backward_into(const TensorView& in, const TensorView& grad_out,
                            TensorView grad_in, Workspace& ws) {
  (void)ws;
  (void)in;
  if (cached_numel_ < 0) {
    // Last forward was inactive: identity.
    if (grad_out.numel() > 0)
      std::memcpy(grad_in.data(), grad_out.data(),
                  static_cast<std::size_t>(grad_out.numel()) * sizeof(float));
    return;
  }
  if (grad_out.numel() != cached_numel_)
    throw TrainingStateError(
        name() + "::backward: grad_output has " +
        std::to_string(grad_out.numel()) + " elements but the masked batch had " +
        std::to_string(cached_numel_));
  const float* gout = grad_out.data();
  float* gin = grad_in.data();
  const std::uint64_t step = last_step_;
  util::parallel_for(0, grad_out.numel(), kTrainElemGrain,
                     [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) gin[i] = gout[i] * mask_at(step, i);
  });
}

}  // namespace nshd::nn
