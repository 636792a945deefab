// Quantization primitives for the INT8 inference path.
//
// Scheme: activations are asymmetric per-tensor u8 (scale s, zero point zp;
// q = clamp(round(x/s) + zp, 0, 255)), weights are symmetric per-channel s8
// clamped to ±127 (one scale per output row, zero point 0).  With those
// choices an integer conv/linear accumulator relates to the real value by
//
//   y[o] = (acc[o] - zp_in * row_sum_w[o]) * (s_in * s_w[o]) + bias[o]
//
// which is the single requantization identity shared by the quantized plan
// epilogues and the HD classifier's bipolar scoring (`requantize`).  Padding
// in the u8 im2row lowering is written as zp_in, so padded taps contribute
// exactly zero after the zero-point correction — bit-for-bit the same as f32
// zero padding.
//
// Calibration: a min/max observer folds per-batch activation ranges and
// `activation_params` converts a range into QuantParams with a *typed*
// status.  Non-finite ranges (kCalibNan) and
// degenerate ranges (kScaleZero) are injectable through the
// `quant.calib_nan` / `quant.scale_zero` fault sites; callers must surface
// these as counted fallbacks, never as a silent switch to f32.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"

namespace nshd::tensor::quant {

/// Asymmetric u8 activation quantization parameters.
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Typed calibration outcome for one activation boundary.
enum class CalibStatus {
  kOk = 0,
  kCalibNan,    // observed range was empty or non-finite
  kScaleZero,   // observed range collapsed to a point (scale would be 0)
};

const char* calib_status_name(CalibStatus status);

/// Observed activation range.  `finite` goes (and stays) false if any
/// observed value was NaN/Inf.
struct Range {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  bool seen = false;
  bool finite = true;
};

/// Min/max of one batch of values (NaN/Inf poisons `finite`).
Range batch_range(const float* x, std::int64_t n);

/// Running min/max over every observed batch.
class MinMaxObserver {
 public:
  void update(const Range& batch);
  void observe(const float* x, std::int64_t n) { update(batch_range(x, n)); }
  const Range& range() const { return range_; }
  void reset() { range_ = Range{}; }

 private:
  Range range_;
};

/// Converts an observed range into activation QuantParams.  The range is
/// widened to include 0 so the zero point is exactly representable.  On
/// kCalibNan / kScaleZero the output params are left untouched.
CalibStatus activation_params(const Range& range, QuantParams* params);

/// Per-channel symmetrically quantized weight matrix: row r holds
/// round(w[r,:] / scales[r]) clamped to ±127 (all-zero rows get scale 1.0),
/// and row_sums[r] caches the integer row sum for the zero-point correction.
/// The rows are stored once, at stride `cols16` (cols rounded up to a whole
/// simd::kDotBytes strip, zero-padded), in the form the kernel reads: s8 in
/// `data8` for the VNNI kernels, pre-widened s16 in `data16` for kMaddS16.
/// The other vector stays empty.  Either way `gemm_weights` runs whole
/// strips with no per-call widening pass and no scalar K tail.
struct QuantizedWeights {
  std::vector<std::int8_t> data8;
  std::vector<std::int16_t> data16;
  std::vector<float> scales;
  std::vector<std::int32_t> row_sums;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t cols16 = 0;

  /// The quantized weight at (r, j), j < cols16 (padding reads 0), from
  /// whichever form is kept.
  std::int32_t at(std::int64_t r, std::int64_t j) const {
    const std::int64_t i = r * cols16 + j;
    return data8.empty() ? data16[static_cast<std::size_t>(i)]
                         : data8[static_cast<std::size_t>(i)];
  }
};

/// Quantizes w[rows, cols] per output row, storing the rows in the form
/// `kernel` reads (by default the kernel this host runs, int8_kernel()).
QuantizedWeights quantize_weights_per_channel(const float* w, std::int64_t rows,
                                              std::int64_t cols,
                                              Int8Kernel kernel = int8_kernel());

/// acc_s32[rows, n] = W * B_u8[n, :]^T, where B's rows sit at stride ldb:
/// s8 weights run on int8_kernel(), s16 weights on gemm_s16_u8.  `k` is the
/// K extent walked: cols16 when B's rows are padded to that stride with
/// initialized bytes (the zero weight lanes annihilate them, and no scalar
/// tail runs), or cols when they are not.
void gemm_weights(const QuantizedWeights& w, const std::uint8_t* b,
                  std::int64_t ldb, std::int32_t* acc, std::int64_t k,
                  std::int64_t n);

/// Quantizes one value (round half away from zero, clamped to [0,255]).
inline std::uint8_t quantize_value(float x, const QuantParams& qp) {
  const long q = std::lround(x / qp.scale) + qp.zero_point;
  return static_cast<std::uint8_t>(std::min(255L, std::max(0L, q)));
}

inline float dequantize_value(std::uint8_t q, const QuantParams& qp) {
  return static_cast<float>(static_cast<std::int32_t>(q) - qp.zero_point) *
         qp.scale;
}

void quantize_u8(const float* x, std::uint8_t* q, std::int64_t n,
                 const QuantParams& qp);
void dequantize_u8(const std::uint8_t* q, float* x, std::int64_t n,
                   const QuantParams& qp);

/// The one requantization identity (see header comment): maps an integer
/// accumulator back to real units.  Conv/linear epilogues pass
/// sub = zp_in * row_sum_w[o], mult = s_in * s_w[o], add = bias[o]; the HD
/// classifier's bipolar score is requantize(acc, 0, 2, -row_sum) — exact,
/// because the operands are small integers.
inline float requantize(std::int32_t acc, std::int32_t sub, float mult,
                        float add) {
  return static_cast<float>(acc - sub) * mult + add;
}

/// Requantizes a row of integer accumulators straight to u8 output codes:
/// q[j*qstride] = clamp(round(requantize(acc[j], sub, mult, add) /
/// out.scale) + out.zero_point, 0, 255), rounding half away from zero.  The
/// output-scale division is folded into mult/add once per row and the
/// rounding is branch-free inline arithmetic (no libm lround call), so -O3
/// vectorizes the loop; a pre-round clamp to ±512 keeps the float->int
/// conversion defined for any input — including non-finite — without
/// changing any in-range code (both clamp rails land on saturated codes).
/// Shared by the conv and linear epilogues of the quantized inference plan.
void requantize_row_u8(const std::int32_t* acc, std::int64_t n,
                       std::int32_t sub, float mult, float add,
                       const QuantParams& out, std::uint8_t* q,
                       std::int64_t qstride);

/// In-place clamp of n u8 codes to [lo, hi] — the quantized ReLU / ReLU6
/// (lo = zero point, hi = the code of the saturation rail).  A free function
/// on purpose: the same loop written inline in a capturing lambda keeps
/// lo/hi/x as closure members, and because u8 stores may alias anything the
/// compiler reloads them every iteration instead of vectorizing.
void clamp_u8(std::uint8_t* x, std::int64_t n, std::uint8_t lo,
              std::uint8_t hi);

/// 2D max pooling over one sample of u8 planes ([channels, in_h, in_w] ->
/// [channels, out_h, out_w]), windows assumed in bounds (the plan only
/// compiles pools whose geometry divides evenly).  Monotone, so pooling
/// commutes with quantization — exact in u8.  The ubiquitous 2x2/stride-2
/// shape takes a branch-free fast path.
void max_pool2d_u8(const std::uint8_t* src, std::int64_t channels,
                   std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
                   std::int64_t stride, std::uint8_t* dst, std::int64_t out_h,
                   std::int64_t out_w);

/// u8 patch lowering for the int8 conv: writes one `row_stride`-byte row per
/// output position (0 -> exactly col_rows bytes), each holding that
/// position's contiguous K-patch — the TRANSPOSE of f32 im2col, shaped for
/// gemm_weights.  Padding taps and the [col_rows, row_stride) K-pad
/// bytes are written as `zero_point`, so a K-padded gemm reads initialized
/// data (the zero-padded weight lanes annihilate it regardless of value).
void im2row_u8(const std::uint8_t* image, const ConvGeometry& geom,
               std::uint8_t zero_point, std::uint8_t* rows,
               std::int64_t row_stride = 0);

}  // namespace nshd::tensor::quant
