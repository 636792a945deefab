#include "nn/activation.hpp"

#include <cassert>
#include <cmath>

#include "util/thread_pool.hpp"

namespace nshd::nn {

const char* to_string(Activation act) {
  switch (act) {
    case Activation::kReLU: return "ReLU";
    case Activation::kReLU6: return "ReLU6";
    case Activation::kSiLU: return "SiLU";
    case Activation::kSigmoid: return "Sigmoid";
  }
  return "?";
}

float activate(Activation act, float x) {
  switch (act) {
    case Activation::kReLU: return x > 0.0f ? x : 0.0f;
    case Activation::kReLU6: return x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x);
    case Activation::kSiLU: return x / (1.0f + std::exp(-x));
    case Activation::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
  }
  return 0.0f;
}

float activate_grad(Activation act, float x) {
  switch (act) {
    case Activation::kReLU: return x > 0.0f ? 1.0f : 0.0f;
    case Activation::kReLU6: return (x > 0.0f && x < 6.0f) ? 1.0f : 0.0f;
    case Activation::kSiLU: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f + x * (1.0f - s));
    }
    case Activation::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f - s);
    }
  }
  return 0.0f;
}

void ActivationLayer::forward_into(const TensorView& in, TensorView out,
                                   Workspace& scratch) {
  (void)scratch;
  assert(out.numel() == in.numel());
  const float* src = in.data();
  float* dst = out.data();
  const std::int64_t n = in.numel();
  // Dispatch hoisted out of the loop: each branch applies the exact scalar
  // expression from activate(), so results stay bitwise identical while the
  // piecewise-linear kinds vectorize.
  switch (act_) {
    case Activation::kReLU:
      for (std::int64_t i = 0; i < n; ++i) {
        const float x = src[i];
        dst[i] = x > 0.0f ? x : 0.0f;
      }
      break;
    case Activation::kReLU6:
      for (std::int64_t i = 0; i < n; ++i) {
        const float x = src[i];
        dst[i] = x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x);
      }
      break;
    case Activation::kSiLU:
      for (std::int64_t i = 0; i < n; ++i) {
        const float x = src[i];
        dst[i] = x / (1.0f + std::exp(-x));
      }
      break;
    case Activation::kSigmoid:
      for (std::int64_t i = 0; i < n; ++i) {
        const float x = src[i];
        dst[i] = 1.0f / (1.0f + std::exp(-x));
      }
      break;
  }
}

void ActivationLayer::backward_into(const TensorView& in,
                                    const TensorView& grad_out,
                                    TensorView grad_in, Workspace& ws) {
  (void)ws;
  assert(grad_out.numel() == in.numel() && grad_in.numel() == in.numel());
  const float* src = in.data();
  const float* gout = grad_out.data();
  float* gin = grad_in.data();
  // One write per element and no accumulation, so chunking over elements is
  // trivially bitwise thread-invariant.  Each branch applies the exact
  // scalar expression of activate_grad(), dispatch hoisted like forward_into.
  switch (act_) {
    case Activation::kReLU:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          gin[i] = gout[i] * (src[i] > 0.0f ? 1.0f : 0.0f);
      });
      break;
    case Activation::kReLU6:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          gin[i] = gout[i] * ((src[i] > 0.0f && src[i] < 6.0f) ? 1.0f : 0.0f);
      });
      break;
    case Activation::kSiLU:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float x = src[i];
          const float s = 1.0f / (1.0f + std::exp(-x));
          gin[i] = gout[i] * (s * (1.0f + x * (1.0f - s)));
        }
      });
      break;
    case Activation::kSigmoid:
      util::parallel_for(0, in.numel(), kTrainElemGrain,
                         [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float x = src[i];
          const float s = 1.0f / (1.0f + std::exp(-x));
          gin[i] = gout[i] * (s * (1.0f - s));
        }
      });
      break;
  }
}

}  // namespace nshd::nn
