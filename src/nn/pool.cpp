#include "nn/pool.hpp"

#include <cassert>
#include <cstring>
#include <limits>

#include "util/thread_pool.hpp"

namespace nshd::nn {

void MaxPool2d::forward_into(const TensorView& in, TensorView out,
                             Workspace& scratch) {
  (void)scratch;
  assert(in.shape().rank() == 4);
  const std::int64_t batch = in.shape()[0], channels = in.shape()[1];
  const std::int64_t in_h = in.shape()[2], in_w = in.shape()[3];
  const std::int64_t out_h = (in_h - kernel_) / stride_ + 1;
  const std::int64_t out_w = (in_w - kernel_) / stride_ + 1;
  assert(out.shape() == Shape({batch, channels, out_h, out_w}));

  std::int64_t out_idx = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = in.data() + (n * channels + c) * in_h * in_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            const std::int64_t ih = oh * stride_ + kh;
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              const std::int64_t iw = ow * stride_ + kw;
              const float v = plane[ih * in_w + iw];
              if (v > best) best = v;
            }
          }
          out[out_idx] = best;
        }
      }
    }
  }
}

void MaxPool2d::backward_into(const TensorView& in, const TensorView& grad_out,
                              TensorView grad_in, Workspace& ws) {
  (void)ws;
  assert(in.shape().rank() == 4);
  const std::int64_t batch = in.shape()[0], channels = in.shape()[1];
  const std::int64_t in_h = in.shape()[2], in_w = in.shape()[3];
  const std::int64_t out_h = (in_h - kernel_) / stride_ + 1;
  const std::int64_t out_w = (in_w - kernel_) / stride_ + 1;
  assert(grad_out.shape() == Shape({batch, channels, out_h, out_w}));
  assert(grad_in.shape() == in.shape());

  const float* src = in.data();
  const float* gout = grad_out.data();
  float* gin = grad_in.data();
  const std::int64_t in_plane = in_h * in_w;
  const std::int64_t out_plane = out_h * out_w;
  // Samples are independent (every pooled window stays inside one plane), so
  // chunking over the batch is bitwise thread-invariant: within a sample the
  // scatter runs in the same flat (c, oh, ow) order as the serial pass.  The
  // argmax is recomputed with the exact forward selection loop (first-max
  // wins via `v > best`), which reproduces the cached-index behaviour.
  util::parallel_for(0, batch, kTrainSampleGrain,
                     [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      float* gsample = gin + n * channels * in_plane;
      std::memset(gsample, 0,
                  static_cast<std::size_t>(channels * in_plane) * sizeof(float));
      for (std::int64_t c = 0; c < channels; ++c) {
        const float* plane = src + (n * channels + c) * in_plane;
        const float* gsrc = gout + (n * channels + c) * out_plane;
        float* gplane = gsample + c * in_plane;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = 0;
            for (std::int64_t kh = 0; kh < kernel_; ++kh) {
              const std::int64_t ih = oh * stride_ + kh;
              for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                const std::int64_t iw = ow * stride_ + kw;
                const float v = plane[ih * in_w + iw];
                if (v > best) {
                  best = v;
                  best_idx = ih * in_w + iw;
                }
              }
            }
            gplane[best_idx] += gsrc[oh * out_w + ow];
          }
        }
      }
    }
  });
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], input[1], (input[2] - kernel_) / stride_ + 1,
               (input[3] - kernel_) / stride_ + 1};
}

void GlobalAvgPool::forward_into(const TensorView& in, TensorView out,
                                 Workspace& scratch) {
  (void)scratch;
  assert(in.shape().rank() == 4);
  const std::int64_t batch = in.shape()[0], channels = in.shape()[1];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];
  assert(out.shape() == Shape({batch, channels, 1, 1}));

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = in.data() + (n * channels + c) * hw;
      double sum = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) sum += plane[i];
      out[n * channels + c] = static_cast<float>(sum / hw);
    }
  }
}

void GlobalAvgPool::backward_into(const TensorView& in,
                                  const TensorView& grad_out,
                                  TensorView grad_in, Workspace& ws) {
  (void)ws;
  // Only in.shape() is read — the adjoint of a mean is data-independent.
  assert(in.shape().rank() == 4);
  const std::int64_t batch = in.shape()[0], channels = in.shape()[1];
  const std::int64_t hw = in.shape()[2] * in.shape()[3];
  assert(grad_out.shape() == Shape({batch, channels, 1, 1}));
  assert(grad_in.shape() == in.shape());

  const float* gout = grad_out.data();
  float* gin = grad_in.data();
  const float inv = 1.0f / static_cast<float>(hw);
  // Pure writes, one plane per iteration: bitwise invariant under chunking.
  util::parallel_for(0, batch * channels, kTrainSampleGrain,
                     [&](std::int64_t pb, std::int64_t pe) {
    for (std::int64_t p = pb; p < pe; ++p) {
      const float g = gout[p] * inv;
      float* plane = gin + p * hw;
      for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
    }
  });
}

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], input[1], 1, 1};
}

}  // namespace nshd::nn
