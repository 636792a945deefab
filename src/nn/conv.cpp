#include "nn/conv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

namespace {

namespace simd = tensor::simd;

// Interior depthwise forward row, stride 1.  Output-major: each output
// element accumulates its K*K taps in (kh, kw) order — the same per-element
// mul/add sequence as the guarded border path, so planned inference
// bitstreams are unchanged — while reading each input row once per kh
// instead of once per tap.
template <int K>
void dw_fwd_row_s1(const float* in_row0, std::int64_t in_w, const float* w,
                   float* dst, std::int64_t count) {
  std::int64_t i = 0;
  for (; i + simd::kWidth <= count; i += simd::kWidth) {
    simd::VF acc = simd::vzero();
    for (int kh = 0; kh < K; ++kh) {
      const float* src = in_row0 + kh * in_w + i;
      for (int kw = 0; kw < K; ++kw)
        acc = simd::vfmadd(simd::vset1(w[kh * K + kw]), simd::vload(src + kw),
                           acc);
    }
    simd::vstore(dst + i, acc);
  }
  for (; i < count; ++i) {
    float sum = 0.0f;
    for (int kh = 0; kh < K; ++kh) {
      const float* src = in_row0 + kh * in_w + i;
      for (int kw = 0; kw < K; ++kw) sum += w[kh * K + kw] * src[kw];
    }
    dst[i] = sum;
  }
}

// Interior depthwise backward row for one kh, stride 1.  One fused pass over
// the row accumulates all K kw-tap dW partial sums in vector lanes and adds
// the shifted dX saxpy, instead of a separate dot + saxpy sweep per tap.
// The traversal is fixed, so results are deterministic and thread-count
// invariant; the per-element reduction order differs from the guarded path,
// which is fine for training-only gradients (no goldens lock them).
template <int K>
void dw_bwd_row_s1(const float* g, const float* src, float* dst,
                   const float* wrow, float* gwrow, std::int64_t count) {
  simd::VF acc[K];
  for (int kw = 0; kw < K; ++kw) acc[kw] = simd::vzero();
  std::int64_t i = 0;
  for (; i + simd::kWidth <= count; i += simd::kWidth) {
    const simd::VF gv = simd::vload(g + i);
    for (int kw = 0; kw < K; ++kw)
      acc[kw] = simd::vfmadd(gv, simd::vload(src + i + kw), acc[kw]);
    // The K overlapping read-modify-write spans are applied in kw order, so
    // each dst element sees a fixed accumulation sequence.
    for (int kw = 0; kw < K; ++kw) {
      float* d = dst + i + kw;
      simd::vstore(d, simd::vfmadd(simd::vset1(wrow[kw]), gv, simd::vload(d)));
    }
  }
  float tail[K] = {};
  for (; i < count; ++i) {
    const float gs = g[i];
    for (int kw = 0; kw < K; ++kw) {
      tail[kw] += gs * src[i + kw];
      dst[i + kw] += wrow[kw] * gs;
    }
  }
  for (int kw = 0; kw < K; ++kw)
    gwrow[kw] += simd::vhsum(acc[kw]) + tail[kw];
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(Shape{out_channels, in_channels * kernel * kernel}, "conv.weight"),
      bias_(Shape{bias ? out_channels : 0}, "conv.bias") {
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
}

tensor::ConvGeometry Conv2d::geometry(std::int64_t in_h, std::int64_t in_w) const {
  return {.channels = in_channels_,
          .in_h = in_h,
          .in_w = in_w,
          .kernel_h = kernel_,
          .kernel_w = kernel_,
          .stride = stride_,
          .pad = pad_};
}

void Conv2d::forward_into(const TensorView& in, TensorView out,
                          Workspace& scratch) {
  assert(in.shape().rank() == 4 && in.shape()[1] == in_channels_);
  const std::int64_t batch = in.shape()[0];
  const auto geom = geometry(in.shape()[2], in.shape()[3]);
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t col_rows = geom.col_rows(), col_cols = geom.col_cols();
  assert(out.shape() == Shape({batch, out_channels_, out_h, out_w}));

  // For a pointwise conv (k=1, s=1, p=0) the im2col matrix IS the input
  // plane [C, H*W], so the copy is skipped and the gemm reads the input
  // directly — same operands, bitwise-identical output.
  const bool pointwise = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  // im2col + GEMM per sample; the col buffer persists in the workspace across
  // samples.  im2col writes every element (padding included), so it needs no
  // zeroing.
  Workspace::Frame frame(scratch);
  float* col = pointwise ? nullptr : scratch.alloc(col_rows * col_cols);
  const std::int64_t in_stride = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* rhs;
    if (pointwise) {
      rhs = in.data() + n * in_stride;
    } else {
      tensor::im2col(in.data() + n * in_stride, geom, col);
      rhs = col;
    }
    tensor::gemm(weight_.value.data(), rhs, out.data() + n * out_stride,
                 out_channels_, col_rows, col_cols);
    if (has_bias_) {
      float* out_n = out.data() + n * out_stride;
      for (std::int64_t o = 0; o < out_channels_; ++o) {
        const float b = bias_.value[o];
        float* plane = out_n + o * out_h * out_w;
        for (std::int64_t i = 0; i < out_h * out_w; ++i) plane[i] += b;
      }
    }
  }
}

std::int64_t Conv2d::scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  if (kernel_ == 1 && stride_ == 1 && pad_ == 0) return 0;  // pointwise: no col
  const auto geom = geometry(input[2], input[3]);
  return geom.col_rows() * geom.col_cols();
}

std::int64_t Conv2d::train_scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const auto geom = geometry(input[2], input[3]);
  const std::int64_t chunks =
      util::chunk_count(0, input[0], kTrainSampleGrain);
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  // Per chunk: dW partial, bias partial, and (non-pointwise) col + col_grad.
  std::int64_t per_chunk =
      out_channels_ * geom.col_rows() + out_channels_ + 2 * align;
  if (!(kernel_ == 1 && stride_ == 1 && pad_ == 0))
    per_chunk += 2 * geom.col_rows() * geom.col_cols() + 2 * align;
  return chunks * per_chunk;
}

void Conv2d::backward_into(const TensorView& in, const TensorView& grad_out,
                           TensorView grad_in, Workspace& ws) {
  assert(in.shape().rank() == 4 && in.shape()[1] == in_channels_);
  const std::int64_t batch = in.shape()[0];
  const auto geom = geometry(in.shape()[2], in.shape()[3]);
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t col_rows = geom.col_rows(), col_cols = geom.col_cols();
  assert(grad_out.shape() == Shape({batch, out_channels_, out_h, out_w}));
  assert(grad_in.shape() == in.shape());

  const bool pointwise = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  const std::int64_t in_stride = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;
  const std::int64_t w_numel = out_channels_ * col_rows;
  const std::int64_t chunks = util::chunk_count(0, batch, kTrainSampleGrain);

  // Deterministic data-parallel accumulation: the batch is sharded into
  // fixed sample chunks; each chunk accumulates dW/db into its own zeroed
  // partial, and the partials are reduced serially in chunk-index order —
  // the same float-add sequence at every NSHD_THREADS.  Buffers are carved
  // out serially up front because Workspace::alloc is not thread-safe.
  Workspace::Frame frame(ws);
  std::vector<float*> dw(static_cast<std::size_t>(chunks));
  std::vector<float*> db(static_cast<std::size_t>(chunks), nullptr);
  std::vector<float*> col(static_cast<std::size_t>(chunks), nullptr);
  std::vector<float*> col_grad(static_cast<std::size_t>(chunks), nullptr);
  for (std::int64_t c = 0; c < chunks; ++c) {
    dw[c] = ws.alloc(w_numel);
    std::memset(dw[c], 0, static_cast<std::size_t>(w_numel) * sizeof(float));
    if (has_bias_) {
      db[c] = ws.alloc(out_channels_);
      std::memset(db[c], 0,
                  static_cast<std::size_t>(out_channels_) * sizeof(float));
    }
    if (!pointwise) {
      col[c] = ws.alloc(col_rows * col_cols);
      col_grad[c] = ws.alloc(col_rows * col_cols);
    }
  }

  util::parallel_for_chunks(0, batch, kTrainSampleGrain,
                            [&](std::int64_t ci, std::int64_t nb,
                                std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      const float* gout = grad_out.data() + n * out_stride;
      float* gin = grad_in.data() + n * in_stride;
      // dW_chunk += gout[O, cols] * col[rows, cols]^T — gemm_bt_packed (the
      // K axis is the whole output plane, where the packed kernel is ~2x the
      // dot-product form).  For a pointwise conv the col matrix IS the input
      // plane [C, H*W], so im2col is skipped and dX lands straight in
      // grad_in: col2im is the identity there, and writing x instead of
      // accumulating into zeros is bitwise equal.
      if (pointwise) {
        tensor::gemm_bt_packed(gout, in.data() + n * in_stride, dw[ci],
                               out_channels_, col_cols, col_rows,
                               /*accumulate=*/true);
      } else {
        tensor::im2col(in.data() + n * in_stride, geom, col[ci]);
        tensor::gemm_bt_packed(gout, col[ci], dw[ci], out_channels_, col_cols,
                               col_rows, /*accumulate=*/true);
      }
      if (has_bias_) {
        for (std::int64_t o = 0; o < out_channels_; ++o) {
          const float* plane = gout + o * out_h * out_w;
          float sum = 0.0f;
          for (std::int64_t i = 0; i < out_h * out_w; ++i) sum += plane[i];
          db[ci][o] += sum;
        }
      }
      // dcol = W^T[rows, O] * gout[O, cols]
      if (pointwise) {
        tensor::gemm_at(weight_.value.data(), gout, gin, col_rows,
                        out_channels_, col_cols);
      } else {
        tensor::gemm_at(weight_.value.data(), gout, col_grad[ci], col_rows,
                        out_channels_, col_cols);
        std::memset(gin, 0, static_cast<std::size_t>(in_stride) * sizeof(float));
        tensor::col2im(col_grad[ci], geom, gin);
      }
    }
  });

  for (std::int64_t c = 0; c < chunks; ++c) {
    float* wg = weight_.grad.data();
    const float* part = dw[c];
    for (std::int64_t i = 0; i < w_numel; ++i) wg[i] += part[i];
    if (has_bias_) {
      for (std::int64_t o = 0; o < out_channels_; ++o)
        bias_.grad[o] += db[c][o];
    }
  }
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

Shape Conv2d::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], out_channels_,
               tensor::conv_out_dim(input[2], kernel_, stride_, pad_),
               tensor::conv_out_dim(input[3], kernel_, stride_, pad_)};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

std::int64_t Conv2d::macs_per_sample(const Shape& input_chw) const {
  assert(input_chw.rank() == 3);
  const std::int64_t out_h = tensor::conv_out_dim(input_chw[1], kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(input_chw[2], kernel_, stride_, pad_);
  return out_channels_ * out_h * out_w * in_channels_ * kernel_ * kernel_;
}

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 util::Rng& rng)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{channels, kernel * kernel}, "dwconv.weight") {
  kaiming_normal(weight_.value, kernel * kernel, rng);
}

void DepthwiseConv2d::forward_into(const TensorView& in, TensorView out,
                                   Workspace& scratch) {
  (void)scratch;
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  const std::int64_t batch = in.shape()[0];
  const std::int64_t in_h = in.shape()[2], in_w = in.shape()[3];
  const std::int64_t out_h = tensor::conv_out_dim(in_h, kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(in_w, kernel_, stride_, pad_);
  assert(out.shape() == Shape({batch, channels_, out_h, out_w}));

  // Interior output columns (every kernel tap lands in-bounds):
  //   ow*stride - pad >= 0             -> ow >= ceil(pad / stride)
  //   ow*stride - pad + kernel <= in_w -> ow <  (in_w - kernel + pad)/stride + 1
  const std::int64_t ow_lo = std::min(out_w, (pad_ + stride_ - 1) / stride_);
  const std::int64_t ow_hi =
      std::max(ow_lo, std::min(out_w, (in_w - kernel_ + pad_) / stride_ + 1));

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* in_plane = in.data() + (n * channels_ + c) * in_h * in_w;
      const float* w = weight_.value.data() + c * kernel_ * kernel_;
      float* out_plane = out.data() + (n * channels_ + c) * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const std::int64_t ih0 = oh * stride_ - pad_;
        float* out_row = out_plane + oh * out_w;
        // Border columns (and fully-clipped rows) take the guarded path.
        const auto guarded = [&](std::int64_t w0, std::int64_t w1) {
          for (std::int64_t ow = w0; ow < w1; ++ow) {
            float sum = 0.0f;
            for (std::int64_t kh = 0; kh < kernel_; ++kh) {
              const std::int64_t ih = ih0 + kh;
              if (ih < 0 || ih >= in_h) continue;
              for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                const std::int64_t iw = ow * stride_ - pad_ + kw;
                if (iw < 0 || iw >= in_w) continue;
                sum += in_plane[ih * in_w + iw] * w[kh * kernel_ + kw];
              }
            }
            out_row[ow] = sum;
          }
        };
        if (ih0 >= 0 && ih0 + kernel_ <= in_h && ow_lo < ow_hi) {
          guarded(0, ow_lo);
          guarded(ow_hi, out_w);
          // Interior: no bounds checks.  Each output element still
          // accumulates its taps in (kh, kw) order starting from zero — the
          // identical float-addition sequence as the guarded loop — via the
          // output-major SIMD kernel for the common stride-1 kernel sizes,
          // or the tap-major fallback otherwise.
          const std::int64_t count = ow_hi - ow_lo;
          const float* in_row0 =
              in_plane + ih0 * in_w + (ow_lo * stride_ - pad_);
          if (stride_ == 1 && kernel_ == 3) {
            dw_fwd_row_s1<3>(in_row0, in_w, w, out_row + ow_lo, count);
          } else if (stride_ == 1 && kernel_ == 5) {
            dw_fwd_row_s1<5>(in_row0, in_w, w, out_row + ow_lo, count);
          } else {
            for (std::int64_t i = 0; i < count; ++i) out_row[ow_lo + i] = 0.0f;
            for (std::int64_t kh = 0; kh < kernel_; ++kh) {
              const float* src_row = in_plane + (ih0 + kh) * in_w;
              for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                const float wv = w[kh * kernel_ + kw];
                const float* src = src_row + ow_lo * stride_ - pad_ + kw;
                float* dst = out_row + ow_lo;
                if (stride_ == 1) {
                  for (std::int64_t i = 0; i < count; ++i) dst[i] += wv * src[i];
                } else {
                  for (std::int64_t i = 0; i < count; ++i)
                    dst[i] += wv * src[i * stride_];
                }
              }
            }
          }
        } else {
          guarded(0, out_w);
        }
      }
    }
  }
}

std::int64_t DepthwiseConv2d::train_scratch_floats(const Shape& input) const {
  assert(input.rank() == 4);
  const std::int64_t chunks =
      util::chunk_count(0, input[0], kTrainSampleGrain);
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  return chunks * (channels_ * kernel_ * kernel_ + align);
}

void DepthwiseConv2d::backward_into(const TensorView& in,
                                    const TensorView& grad_out,
                                    TensorView grad_in, Workspace& ws) {
  assert(in.shape().rank() == 4 && in.shape()[1] == channels_);
  const std::int64_t batch = in.shape()[0];
  const std::int64_t in_h = in.shape()[2], in_w = in.shape()[3];
  const std::int64_t out_h = grad_out.shape()[2], out_w = grad_out.shape()[3];
  assert(grad_out.shape() ==
         Shape({batch, channels_, out_h, out_w}));
  assert(grad_in.shape() == in.shape());

  const std::int64_t w_numel = channels_ * kernel_ * kernel_;
  const std::int64_t chunks = util::chunk_count(0, batch, kTrainSampleGrain);
  const std::int64_t sample_stride = channels_ * in_h * in_w;

  // Same chunked-partial scheme as Conv2d::backward_into: per-chunk dW
  // buffers (allocated serially — Workspace is not thread-safe) reduced in
  // chunk-index order; grad_in rows are disjoint per sample.
  Workspace::Frame frame(ws);
  std::vector<float*> dw(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) {
    dw[c] = ws.alloc(w_numel);
    std::memset(dw[c], 0, static_cast<std::size_t>(w_numel) * sizeof(float));
  }

  // Interior output columns (same derivation as forward_into): every kernel
  // tap lands in-bounds, so the hot path runs tap-major with no bounds
  // checks — a vector dot per tap for dW and a shifted saxpy for dX.
  const std::int64_t ow_lo = std::min(out_w, (pad_ + stride_ - 1) / stride_);
  const std::int64_t ow_hi =
      std::max(ow_lo, std::min(out_w, (in_w - kernel_ + pad_) / stride_ + 1));

  util::parallel_for_chunks(0, batch, kTrainSampleGrain,
                            [&](std::int64_t ci, std::int64_t nb,
                                std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      float* gin_sample = grad_in.data() + n * sample_stride;
      std::memset(gin_sample, 0,
                  static_cast<std::size_t>(sample_stride) * sizeof(float));
      for (std::int64_t c = 0; c < channels_; ++c) {
        const float* in_plane = in.data() + (n * channels_ + c) * in_h * in_w;
        const float* gout_plane =
            grad_out.data() + (n * channels_ + c) * out_h * out_w;
        const float* w = weight_.value.data() + c * kernel_ * kernel_;
        float* gw = dw[ci] + c * kernel_ * kernel_;
        float* gin_plane = gin_sample + c * in_h * in_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih0 = oh * stride_ - pad_;
          const float* g_row = gout_plane + oh * out_w;
          // Border columns (and clipped rows) take the guarded per-output
          // path; the accumulation order within each gw/gin element is
          // fixed by the loop structure, so the result is deterministic
          // and thread-count invariant (samples are chunk-disjoint).
          const auto guarded = [&](std::int64_t w0, std::int64_t w1) {
            for (std::int64_t ow = w0; ow < w1; ++ow) {
              const float g = g_row[ow];
              if (g == 0.0f) continue;
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const std::int64_t ih = ih0 + kh;
                if (ih < 0 || ih >= in_h) continue;
                for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t iw = ow * stride_ - pad_ + kw;
                  if (iw < 0 || iw >= in_w) continue;
                  gw[kh * kernel_ + kw] += g * in_plane[ih * in_w + iw];
                  gin_plane[ih * in_w + iw] += g * w[kh * kernel_ + kw];
                }
              }
            }
          };
          if (ih0 >= 0 && ih0 + kernel_ <= in_h && ow_lo < ow_hi) {
            guarded(0, ow_lo);
            guarded(ow_hi, out_w);
            const std::int64_t count = ow_hi - ow_lo;
            const float* g_int = g_row + ow_lo;
            if (stride_ == 1 && (kernel_ == 3 || kernel_ == 5)) {
              const std::int64_t base = ow_lo - pad_;
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const float* src = in_plane + (ih0 + kh) * in_w + base;
                float* dst = gin_plane + (ih0 + kh) * in_w + base;
                if (kernel_ == 3) {
                  dw_bwd_row_s1<3>(g_int, src, dst, w + kh * 3, gw + kh * 3,
                                   count);
                } else {
                  dw_bwd_row_s1<5>(g_int, src, dst, w + kh * 5, gw + kh * 5,
                                   count);
                }
              }
            } else {
              for (std::int64_t kh = 0; kh < kernel_; ++kh) {
                const float* src_row = in_plane + (ih0 + kh) * in_w;
                float* gin_row = gin_plane + (ih0 + kh) * in_w;
                for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                  const std::int64_t off = ow_lo * stride_ - pad_ + kw;
                  const float wv = w[kh * kernel_ + kw];
                  if (stride_ == 1) {
                    gw[kh * kernel_ + kw] +=
                        tensor::dot(g_int, src_row + off, count);
                    float* dst = gin_row + off;
                    for (std::int64_t i = 0; i < count; ++i)
                      dst[i] += wv * g_int[i];
                  } else {
                    float sum = 0.0f;
                    const float* src = src_row + off;
                    float* dst = gin_row + off;
                    for (std::int64_t i = 0; i < count; ++i) {
                      sum += g_int[i] * src[i * stride_];
                      dst[i * stride_] += wv * g_int[i];
                    }
                    gw[kh * kernel_ + kw] += sum;
                  }
                }
              }
            }
          } else {
            guarded(0, out_w);
          }
        }
      }
    }
  });

  float* wg = weight_.grad.data();
  for (std::int64_t c = 0; c < chunks; ++c) {
    const float* part = dw[c];
    for (std::int64_t i = 0; i < w_numel; ++i) wg[i] += part[i];
  }
}

std::vector<Param*> DepthwiseConv2d::params() { return {&weight_}; }

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  assert(input.rank() == 4);
  return Shape{input[0], channels_,
               tensor::conv_out_dim(input[2], kernel_, stride_, pad_),
               tensor::conv_out_dim(input[3], kernel_, stride_, pad_)};
}

std::string DepthwiseConv2d::name() const {
  return "DepthwiseConv2d(" + std::to_string(channels_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) + ")";
}

std::int64_t DepthwiseConv2d::macs_per_sample(const Shape& input_chw) const {
  assert(input_chw.rank() == 3);
  const std::int64_t out_h = tensor::conv_out_dim(input_chw[1], kernel_, stride_, pad_);
  const std::int64_t out_w = tensor::conv_out_dim(input_chw[2], kernel_, stride_, pad_);
  return channels_ * out_h * out_w * kernel_ * kernel_;
}

}  // namespace nshd::nn
