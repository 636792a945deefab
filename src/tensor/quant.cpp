#include "tensor/quant.hpp"

#include <cstring>

#include "util/fault.hpp"

namespace nshd::tensor::quant {

const char* calib_status_name(CalibStatus status) {
  switch (status) {
    case CalibStatus::kOk: return "ok";
    case CalibStatus::kCalibNan: return "calib_nan";
    case CalibStatus::kScaleZero: return "scale_zero";
  }
  return "unknown";
}

Range batch_range(const float* x, std::int64_t n) {
  Range r;
  if (n <= 0) return r;
  r.seen = true;
  float lo = x[0], hi = x[0];
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    if (!std::isfinite(v)) {
      r.finite = false;
      continue;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  r.lo = lo;
  r.hi = hi;
  return r;
}

void MinMaxObserver::update(const Range& batch) {
  if (!batch.seen) return;
  range_.finite = range_.finite && batch.finite;
  if (!range_.seen) {
    range_.lo = batch.lo;
    range_.hi = batch.hi;
    range_.seen = true;
    return;
  }
  range_.lo = std::min(range_.lo, batch.lo);
  range_.hi = std::max(range_.hi, batch.hi);
}

CalibStatus activation_params(const Range& range, QuantParams* params) {
  bool bad = !range.seen || !range.finite || !std::isfinite(range.lo) ||
             !std::isfinite(range.hi);
  if (util::fault::should_fire("quant.calib_nan")) bad = true;
  if (bad) return CalibStatus::kCalibNan;
  const float lo = std::min(range.lo, 0.0f);
  const float hi = std::max(range.hi, 0.0f);
  float scale = (hi - lo) / 255.0f;
  if (util::fault::should_fire("quant.scale_zero")) scale = 0.0f;
  if (!(scale > 0.0f) || !std::isfinite(scale)) return CalibStatus::kScaleZero;
  params->scale = scale;
  params->zero_point = static_cast<std::int32_t>(
      std::min(255L, std::max(0L, std::lround(-lo / scale))));
  return CalibStatus::kOk;
}

QuantizedWeights quantize_weights_per_channel(const float* w, std::int64_t rows,
                                              std::int64_t cols, Int8Kernel kernel) {
  QuantizedWeights qw;
  qw.rows = rows;
  qw.cols = cols;
  qw.cols16 = (cols + simd::kDotBytes - 1) / simd::kDotBytes * simd::kDotBytes;
  const auto padded = static_cast<std::size_t>(rows * qw.cols16);
  if (kernel == Int8Kernel::kMaddS16) {
    qw.data16.assign(padded, 0);
  } else {
    qw.data8.assign(padded, 0);
  }
  qw.scales.resize(static_cast<std::size_t>(rows));
  qw.row_sums.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = w + r * cols;
    float amax = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) amax = std::max(amax, std::fabs(src[j]));
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    qw.scales[static_cast<std::size_t>(r)] = scale;
    std::int32_t sum = 0;
    const float inv = 1.0f / scale;
    for (std::int64_t j = 0; j < cols; ++j) {
      const long q = std::min(127L, std::max(-127L, std::lround(src[j] * inv)));
      const auto i = static_cast<std::size_t>(r * qw.cols16 + j);
      if (qw.data8.empty()) {
        qw.data16[i] = static_cast<std::int16_t>(q);
      } else {
        qw.data8[i] = static_cast<std::int8_t>(q);
      }
      sum += static_cast<std::int32_t>(q);
    }
    qw.row_sums[static_cast<std::size_t>(r)] = sum;
  }
  return qw;
}

void gemm_weights(const QuantizedWeights& w, const std::uint8_t* b,
                  std::int64_t ldb, std::int32_t* acc, std::int64_t k,
                  std::int64_t n) {
  if (w.data8.empty()) {
    gemm_s16_u8(w.data16.data(), w.cols16, b, ldb, acc, w.rows, k, n);
  } else {
    gemm_s8_u8(int8_kernel(), w.data8.data(), w.cols16, b, ldb, acc, w.rows, k, n);
  }
}

namespace {

/// Half-away-from-zero rounding of a pre-clamped float to s32 — identical to
/// std::lround over the clamped domain, but plain arithmetic the
/// auto-vectorizer handles.  The ±512 clamp keeps the float->int conversion
/// defined for any input (NaN funnels through std::max's first argument to
/// the low rail); every out-of-range value still saturates to the same u8
/// code lround would have produced after the caller's [0,255] clamp.
inline std::int32_t round_clamped(float r) {
  r = std::min(512.0f, std::max(-512.0f, r));
  return static_cast<std::int32_t>(r + (r >= 0.0f ? 0.5f : -0.5f));
}

}  // namespace

void quantize_u8(const float* x, std::uint8_t* q, std::int64_t n,
                 const QuantParams& qp) {
  const float inv = 1.0f / qp.scale;
  const std::int32_t zp = qp.zero_point;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t v = round_clamped(x[i] * inv) + zp;
    q[i] = static_cast<std::uint8_t>(std::min(255, std::max(0, v)));
  }
}

void requantize_row_u8(const std::int32_t* acc, std::int64_t n,
                       std::int32_t sub, float mult, float add,
                       const QuantParams& out, std::uint8_t* q,
                       std::int64_t qstride) {
  const float inv = 1.0f / out.scale;
  const float mult_q = mult * inv;
  const float add_q = add * inv;
  const std::int32_t zp = out.zero_point;
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int32_t v =
        round_clamped(requantize(acc[j], sub, mult_q, add_q)) + zp;
    q[j * qstride] = static_cast<std::uint8_t>(std::min(255, std::max(0, v)));
  }
}

void dequantize_u8(const std::uint8_t* q, float* x, std::int64_t n,
                   const QuantParams& qp) {
  const float scale = qp.scale;
  const std::int32_t zp = qp.zero_point;
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(static_cast<std::int32_t>(q[i]) - zp) * scale;
  }
}

void clamp_u8(std::uint8_t* x, std::int64_t n, std::uint8_t lo,
              std::uint8_t hi) {
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::min(hi, std::max(lo, x[i]));
  }
}

void max_pool2d_u8(const std::uint8_t* src, std::int64_t channels,
                   std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
                   std::int64_t stride, std::uint8_t* dst, std::int64_t out_h,
                   std::int64_t out_w) {
  const std::uint8_t* __restrict in = src;
  std::uint8_t* __restrict out = dst;
  const bool fast2 = kernel == 2 && stride == 2;
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::uint8_t* plane = in + c * in_h * in_w;
    std::uint8_t* oplane = out + c * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      std::uint8_t* orow = oplane + oy * out_w;
      if (fast2) {
        const std::uint8_t* r0 = plane + 2 * oy * in_w;
        const std::uint8_t* r1 = r0 + in_w;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::uint8_t a = std::max(r0[2 * ox], r0[2 * ox + 1]);
          const std::uint8_t b = std::max(r1[2 * ox], r1[2 * ox + 1]);
          orow[ox] = std::max(a, b);
        }
        continue;
      }
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        std::uint8_t best = 0;
        const std::uint8_t* win = plane + oy * stride * in_w + ox * stride;
        for (std::int64_t ky = 0; ky < kernel; ++ky, win += in_w) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            best = std::max(best, win[kx]);
          }
        }
        orow[ox] = best;
      }
    }
  }
}

namespace {

/// Kernel-width-specialized lowering (KW == 0 instantiates the runtime-width
/// fallback).  The dominant cost is the fully interior patch — every tap in
/// bounds — which collapses to channels * kernel_h fixed-size KW-byte copies
/// with zero per-byte index math; edge patches keep the branchy per-byte
/// path, but for stride-1 3x3 geometries they are a thin border.
template <int KW>
void im2row_u8_impl(const std::uint8_t* image, const ConvGeometry& g,
                    std::uint8_t zero_point, std::uint8_t* rows,
                    std::int64_t row_stride) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t H = g.in_h, W = g.in_w;
  const std::int64_t kh = g.kernel_h;
  const std::int64_t kw = KW > 0 ? KW : g.kernel_w;
  const std::int64_t crows = g.col_rows();
  const std::int64_t plane_sz = H * W;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t iy0 = oy * g.stride - g.pad;
    const std::int64_t ky_lo = std::max<std::int64_t>(0, -iy0);
    const std::int64_t ky_hi = std::min<std::int64_t>(kh, H - iy0);
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int64_t ix0 = ox * g.stride - g.pad;
      std::uint8_t* const base = rows + (oy * ow + ox) * row_stride;
      std::uint8_t* dst = base;
      if (ix0 >= 0 && ix0 + kw <= W && ky_lo == 0 && ky_hi == kh) {
        const std::uint8_t* src = image + iy0 * W + ix0;
        // Odd widths copy one byte past each KW segment (a single 4-byte
        // store instead of 2+1 for KW == 3): the spilled byte lands on the
        // next segment (written right after), this patch's K-pad bytes
        // (zero_point-filled below), or the next patch's first byte (its
        // own lowering runs later).  Only the very last patch of the image
        // has nothing after it, so it takes exact-width copies.
        const bool last_patch = oy == oh - 1 && ox == ow - 1;
        if (KW == 3 && !last_patch) {
          for (std::int64_t c = 0; c < g.channels; ++c, src += plane_sz) {
            const std::uint8_t* r = src;
            for (std::int64_t ky = 0; ky < kh; ++ky, r += W, dst += kw) {
              std::memcpy(dst, r, 4);
            }
          }
          for (std::uint8_t* p = base + crows; p != base + row_stride; ++p)
            *p = zero_point;
          continue;
        }
        for (std::int64_t c = 0; c < g.channels; ++c, src += plane_sz) {
          const std::uint8_t* r = src;
          for (std::int64_t ky = 0; ky < kh; ++ky, r += W, dst += kw) {
            if constexpr (KW > 0) {
              std::memcpy(dst, r, KW);
            } else {
              for (std::int64_t kx = 0; kx < kw; ++kx) dst[kx] = r[kx];
            }
          }
        }
      } else {
        for (std::int64_t c = 0; c < g.channels; ++c) {
          const std::uint8_t* plane = image + c * plane_sz;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (ky < ky_lo || ky >= ky_hi) {
              for (std::int64_t kx = 0; kx < kw; ++kx) *dst++ = zero_point;
              continue;
            }
            const std::uint8_t* row = plane + iy * W;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ix0 + kx;
              *dst++ = (ix < 0 || ix >= W) ? zero_point : row[ix];
            }
          }
        }
      }
      for (std::uint8_t* p = base + crows; p != base + row_stride; ++p)
        *p = zero_point;
    }
  }
}

}  // namespace

void im2row_u8(const std::uint8_t* image, const ConvGeometry& g,
               std::uint8_t zero_point, std::uint8_t* rows,
               std::int64_t row_stride) {
  if (row_stride == 0) row_stride = g.col_rows();
  switch (g.kernel_w) {
    case 1: return im2row_u8_impl<1>(image, g, zero_point, rows, row_stride);
    case 3: return im2row_u8_impl<3>(image, g, zero_point, rows, row_stride);
    case 5: return im2row_u8_impl<5>(image, g, zero_point, rows, row_stride);
    case 7: return im2row_u8_impl<7>(image, g, zero_point, rows, row_stride);
    default:
      return im2row_u8_impl<0>(image, g, zero_point, rows, row_stride);
  }
}

}  // namespace nshd::tensor::quant
