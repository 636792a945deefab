// Tests for the INT8 inference path: widening dot/gemm_s8 differentials
// against integer references (odd shapes, saturation edges), each int8 GEMM
// kernel the host can run (strides, K tails, both loop orders, full-scale
// corners, thread-count invariance), quantization
// primitives (round trip, per-channel weights, u8 im2row vs f32 im2col),
// calibration observers and their typed fault sites ("quant.calib_nan",
// "quant.scale_zero"), QuantizedInferencePlan semantics (thread-count
// invariance, calibration determinism, counted f32 fallbacks, oversized
// batches), and the serving engine's quantized_batches counter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "core/feature_extractor.hpp"
#include "hd/classifier.hpp"
#include "hd/hypervector.hpp"
#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/quant.hpp"
#include "tensor/simd.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nshd {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;
using tensor::quant::CalibStatus;
using tensor::quant::QuantParams;

std::vector<std::uint8_t> random_u8(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  return v;
}

std::vector<std::int8_t> random_s8(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = static_cast<std::int8_t>(static_cast<int>(rng.next_u64() % 255) - 127);
  return v;
}

std::int32_t ref_dot(const std::uint8_t* a, const std::int8_t* b, std::int64_t n) {
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < n; ++i)
    acc += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]);
  return static_cast<std::int32_t>(acc);
}

// --- Widening dot kernel ---

TEST(QuantKernels, DotU8S8MatchesIntegerReferenceAtOddLengths) {
  for (std::int64_t n : {0, 1, 3, 15, 16, 17, 31, 32, 33, 63, 64, 100, 257, 1000}) {
    const std::vector<std::uint8_t> a = random_u8(n, 11 + static_cast<std::uint64_t>(n));
    const std::vector<std::int8_t> b = random_s8(n, 29 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(tensor::simd::dot_u8s8(a.data(), b.data(), n), ref_dot(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(QuantKernels, DotU8S8SaturationEdges) {
  // The full-scale corner: 255 * (+/-127) per lane.  A true maddubs-style
  // kernel saturates the s16 pair sum here (255*127*2 = 64770 > 32767); the
  // widening kernel must stay exact.
  for (std::int64_t n : {1, 2, 16, 17, 33, 1024}) {
    std::vector<std::uint8_t> a(static_cast<std::size_t>(n), 255);
    std::vector<std::int8_t> pos(static_cast<std::size_t>(n), 127);
    std::vector<std::int8_t> neg(static_cast<std::size_t>(n), -127);
    EXPECT_EQ(tensor::simd::dot_u8s8(a.data(), pos.data(), n),
              static_cast<std::int32_t>(n * 255 * 127)) << "n=" << n;
    EXPECT_EQ(tensor::simd::dot_u8s8(a.data(), neg.data(), n),
              static_cast<std::int32_t>(-n * 255 * 127)) << "n=" << n;
    // Alternating max-magnitude pairs: exercises both madd lanes.
    std::vector<std::int8_t> alt(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) alt[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 127 : -127;
    EXPECT_EQ(tensor::simd::dot_u8s8(a.data(), alt.data(), n),
              ref_dot(a.data(), alt.data(), n)) << "n=" << n;
  }
}

// --- gemm_s8 ---

TEST(QuantKernels, GemmS8MatchesIntegerReferenceAtOddShapes) {
  struct Case { std::int64_t m, k, n; };
  // m not a multiple of the 4-row tile, k with a scalar tail, n == 1.
  for (const Case& c : {Case{1, 1, 1}, Case{3, 7, 2}, Case{4, 16, 4},
                        Case{5, 33, 3}, Case{7, 64, 9}, Case{13, 100, 1},
                        Case{16, 257, 5}}) {
    const std::vector<std::int8_t> a = random_s8(c.m * c.k, 5);
    const std::vector<std::uint8_t> b = random_u8(c.n * c.k, 17);
    std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * c.n), -1);
    tensor::gemm_s8(a.data(), b.data(), out.data(), c.m, c.k, c.n);
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        EXPECT_EQ(out[static_cast<std::size_t>(i * c.n + j)],
                  ref_dot(b.data() + j * c.k, a.data() + i * c.k, c.k))
            << "m=" << c.m << " k=" << c.k << " n=" << c.n << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantKernels, GemmS8ThreadCountInvariant) {
  const std::int64_t m = 37, k = 129, n = 8;
  const std::vector<std::int8_t> a = random_s8(m * k, 3);
  const std::vector<std::uint8_t> b = random_u8(n * k, 9);
  std::vector<std::int32_t> serial(static_cast<std::size_t>(m * n));
  std::vector<std::int32_t> parallel(static_cast<std::size_t>(m * n));
  util::set_thread_count(1);
  tensor::gemm_s8(a.data(), b.data(), serial.data(), m, k, n);
  util::set_thread_count(4);
  tensor::gemm_s8(a.data(), b.data(), parallel.data(), m, k, n);
  util::set_thread_count(1);
  EXPECT_EQ(serial, parallel);
}

// --- Strided int8 kernels: gemm_s16_u8 and gemm_s8_u8 on each kernel ---

// Operands of one strided BT-form case.  Weight rows hold k values at stride
// lda and activation rows k values at stride ldb; every byte in a row's
// [k, stride) padding is junk, which the kernels must never read into C.
struct StridedCase {
  std::int64_t m, k, n, lda, ldb;
};

struct StridedOperands {
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
};

StridedOperands strided_operands(const StridedCase& c, std::uint64_t seed) {
  StridedOperands ops{random_s8(c.m * c.lda, seed), random_u8(c.n * c.ldb, seed + 1)};
  return ops;
}

std::vector<std::int32_t> strided_reference(const StridedCase& c, const StridedOperands& ops) {
  std::vector<std::int32_t> ref(static_cast<std::size_t>(c.m * c.n));
  for (std::int64_t i = 0; i < c.m; ++i)
    for (std::int64_t j = 0; j < c.n; ++j)
      ref[static_cast<std::size_t>(i * c.n + j)] =
          ref_dot(ops.b.data() + j * c.ldb, ops.a.data() + i * c.lda, c.k);
  return ref;
}

// Odd m and n (partial 4-row and 3-column tiles), K ending on a 32-byte
// strip, on a 16-byte strip, and in a scalar tail, strides with junk
// padding, and both loop orders of the row driver: wide activation panels
// (n * ldb above a 16-row weight chunk) run columns-outer, the rest
// rows-outer.
const StridedCase kStridedCases[] = {
    {1, 1, 1, 1, 1},        {3, 7, 2, 9, 11},       {5, 16, 3, 16, 21},
    {7, 33, 5, 48, 40},     {9, 48, 7, 48, 48},     {13, 63, 4, 64, 80},
    {16, 40, 200, 48, 48},  {6, 17, 301, 32, 19},   {37, 40, 3, 48, 48},
    {33, 129, 2, 144, 160}, {20, 1152, 9, 1152, 1160},
};

TEST(QuantKernels, GemmS16U8MatchesIntegerReferenceWithStridesAndTails) {
  for (const StridedCase& c : kStridedCases) {
    const StridedOperands ops = strided_operands(c, 41 + static_cast<std::uint64_t>(c.k));
    std::vector<std::int16_t> a16(ops.a.begin(), ops.a.end());
    std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * c.n), -1);
    tensor::gemm_s16_u8(a16.data(), c.lda, ops.b.data(), c.ldb, out.data(), c.m, c.k, c.n);
    EXPECT_EQ(out, strided_reference(c, ops))
        << "m=" << c.m << " k=" << c.k << " n=" << c.n << " lda=" << c.lda << " ldb=" << c.ldb;
  }
}

TEST(QuantKernels, SelectedInt8KernelIsSupported) {
  const tensor::Int8Kernel kernel = tensor::int8_kernel();
  EXPECT_TRUE(tensor::int8_kernel_supported(kernel));
  EXPECT_TRUE(tensor::int8_kernel_supported(tensor::Int8Kernel::kMaddS16));
  EXPECT_STREQ(tensor::int8_kernel_name(), tensor::int8_kernel_name(kernel));
#if defined(NSHD_SIMD_FORCE_SCALAR) || !(defined(__x86_64__) || defined(__i386__))
  EXPECT_EQ(kernel, tensor::Int8Kernel::kMaddS16);
#endif
  std::printf("int8 kernel: %s\n", tensor::int8_kernel_name());
}

// Every int8 kernel through its own entry point.  A kernel the host cannot
// run is skipped with the reason, never passed: gemm_s8_u8 would quietly
// run kMaddS16 in its place.
class Int8KernelTest : public ::testing::TestWithParam<tensor::Int8Kernel> {
 protected:
  void SetUp() override {
    if (!tensor::int8_kernel_supported(GetParam())) {
      GTEST_SKIP() << "this host or build cannot run the "
                   << tensor::int8_kernel_name(GetParam()) << " kernel";
    }
  }
};

TEST_P(Int8KernelTest, MatchesIntegerReferenceWithStridesAndTails) {
  for (const StridedCase& c : kStridedCases) {
    const StridedOperands ops = strided_operands(c, 73 + static_cast<std::uint64_t>(c.k));
    std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * c.n), -1);
    tensor::gemm_s8_u8(GetParam(), ops.a.data(), c.lda, ops.b.data(), c.ldb, out.data(),
                       c.m, c.k, c.n);
    EXPECT_EQ(out, strided_reference(c, ops))
        << "m=" << c.m << " k=" << c.k << " n=" << c.n << " lda=" << c.lda << " ldb=" << c.ldb;
  }
}

TEST_P(Int8KernelTest, ExactAtFullScaleCorners) {
  // 255 x (+/-127) in every lane at the widest conv K of the model zoo: a
  // saturating kernel (maddubs, vpdpbusds) would clip these sums.
  const std::int64_t m = 5, k = 1152, n = 4;
  std::vector<std::uint8_t> b(static_cast<std::size_t>(n * k), 255);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      std::int8_t v = 127;
      if (i == 1) v = -127;
      if (i == 2) v = (p % 2 == 0) ? 127 : -127;
      if (i == 3) v = (p % 8 < 4) ? -127 : 127;
      if (i == 4) v = -128;
      a[static_cast<std::size_t>(i * k + p)] = v;
    }
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(m * n), -1);
  tensor::gemm_s8_u8(GetParam(), a.data(), k, b.data(), k, out.data(), m, k, n);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(out[static_cast<std::size_t>(0 * n + j)], k * 255 * 127);
    EXPECT_EQ(out[static_cast<std::size_t>(1 * n + j)], -k * 255 * 127);
    EXPECT_EQ(out[static_cast<std::size_t>(2 * n + j)], 0);
    EXPECT_EQ(out[static_cast<std::size_t>(3 * n + j)], 0);
    EXPECT_EQ(out[static_cast<std::size_t>(4 * n + j)], -k * 255 * 128);
  }
}

TEST_P(Int8KernelTest, ThreadCountInvariant) {
  const StridedCase c{53, 300, 11, 304, 320};
  const StridedOperands ops = strided_operands(c, 97);
  std::vector<std::int32_t> serial(static_cast<std::size_t>(c.m * c.n));
  std::vector<std::int32_t> parallel(static_cast<std::size_t>(c.m * c.n));
  util::set_thread_count(1);
  tensor::gemm_s8_u8(GetParam(), ops.a.data(), c.lda, ops.b.data(), c.ldb, serial.data(),
                     c.m, c.k, c.n);
  util::set_thread_count(4);
  tensor::gemm_s8_u8(GetParam(), ops.a.data(), c.lda, ops.b.data(), c.ldb, parallel.data(),
                     c.m, c.k, c.n);
  util::set_thread_count(1);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, strided_reference(c, ops));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, Int8KernelTest,
    ::testing::Values(tensor::Int8Kernel::kMaddS16, tensor::Int8Kernel::kAvxVnni,
                      tensor::Int8Kernel::kAvx512Vnni),
    [](const ::testing::TestParamInfo<tensor::Int8Kernel>& info) {
      return std::string(tensor::int8_kernel_name(info.param));
    });

// --- Quantization primitives ---

TEST(QuantPrimitives, WeightQuantizationPerChannel) {
  // Row 0: amax 2.0 -> scale 2/127; row 1: all zero -> scale 1.0.  Each
  // kernel's weight form holds the same values and keeps no second copy.
  const float w[] = {2.0f, -1.0f, 0.5f, 0.0f, 0.0f, 0.0f};
  for (const tensor::Int8Kernel kernel :
       {tensor::Int8Kernel::kMaddS16, tensor::Int8Kernel::kAvxVnni}) {
    SCOPED_TRACE(tensor::int8_kernel_name(kernel));
    const tensor::quant::QuantizedWeights q =
        tensor::quant::quantize_weights_per_channel(w, 2, 3, kernel);
    EXPECT_EQ(q.rows, 2);
    EXPECT_EQ(q.cols, 3);
    EXPECT_EQ(q.cols16, tensor::simd::kDotBytes);
    const bool s16 = kernel == tensor::Int8Kernel::kMaddS16;
    EXPECT_EQ(q.data16.size(), s16 ? static_cast<std::size_t>(2 * q.cols16) : 0u);
    EXPECT_EQ(q.data8.size(), s16 ? 0u : static_cast<std::size_t>(2 * q.cols16));
    EXPECT_FLOAT_EQ(q.scales[0], 2.0f / 127.0f);
    EXPECT_EQ(q.at(0, 0), 127);
    EXPECT_EQ(q.at(0, 1), -64);  // lround(-1 * 127 / 2) = -64 (half away from zero)
    EXPECT_EQ(q.at(0, 2), 32);   // lround(0.5 * 127 / 2)
    EXPECT_EQ(q.row_sums[0], 127 - 64 + 32);
    EXPECT_FLOAT_EQ(q.scales[1], 1.0f);
    EXPECT_EQ(q.at(1, 0), 0);
    EXPECT_EQ(q.row_sums[1], 0);
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t j = q.cols; j < q.cols16; ++j) EXPECT_EQ(q.at(r, j), 0);
  }
}

TEST(QuantPrimitives, GemmWeightsMatchesReferenceInEveryForm) {
  // Both weight forms (s16, and s8 on whatever kernel this host runs) on a
  // conv-shaped layer: K = 27 padded to 32, activation rows at the padded
  // stride with junk in the pad (the zero weight lanes must annihilate it),
  // and the unpadded linear-layer call that walks the true K.
  const std::int64_t rows = 10, cols = 27, n = 14;
  util::Rng rng(5);
  std::vector<float> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = rng.next_float() * 2.0f - 1.0f;
  for (const tensor::Int8Kernel kernel :
       {tensor::Int8Kernel::kMaddS16, tensor::Int8Kernel::kAvxVnni}) {
    SCOPED_TRACE(tensor::int8_kernel_name(kernel));
    const tensor::quant::QuantizedWeights q =
        tensor::quant::quantize_weights_per_channel(w.data(), rows, cols, kernel);
    for (const std::int64_t k : {q.cols16, cols}) {
      const std::int64_t ldb = k;
      const std::vector<std::uint8_t> b = random_u8(n * ldb, 23);
      std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n), -1);
      tensor::quant::gemm_weights(q, b.data(), ldb, acc.data(), k, n);
      for (std::int64_t o = 0; o < rows; ++o) {
        for (std::int64_t j = 0; j < n; ++j) {
          std::int32_t ref = 0;
          for (std::int64_t p = 0; p < cols; ++p)
            ref += q.at(o, p) * static_cast<std::int32_t>(b[static_cast<std::size_t>(j * ldb + p)]);
          EXPECT_EQ(acc[static_cast<std::size_t>(o * n + j)], ref)
              << "k=" << k << " at (" << o << "," << j << ")";
        }
      }
    }
  }
}

TEST(QuantPrimitives, ActivationRoundTripBoundedByHalfScale) {
  util::Rng rng(77);
  std::vector<float> x(1000);
  for (auto& v : x) v = rng.next_float() * 6.0f - 2.0f;  // [-2, 4]
  const tensor::quant::Range range = tensor::quant::batch_range(x.data(), 1000);
  QuantParams qp;
  ASSERT_EQ(tensor::quant::activation_params(range, &qp), CalibStatus::kOk);
  EXPECT_GT(qp.scale, 0.0f);
  // Zero is exactly representable (the range is widened to include it).
  EXPECT_FLOAT_EQ(tensor::quant::dequantize_value(
                      static_cast<std::uint8_t>(qp.zero_point), qp), 0.0f);
  std::vector<std::uint8_t> q(1000);
  std::vector<float> back(1000);
  tensor::quant::quantize_u8(x.data(), q.data(), 1000, qp);
  tensor::quant::dequantize_u8(q.data(), back.data(), 1000, qp);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(std::fabs(back[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(i)]),
              0.5f * qp.scale + 1e-6f) << "i=" << i;
  }
}

TEST(QuantPrimitives, Im2RowMatchesIm2colTranspose) {
  // Quantize an image, lower it with im2row_u8, and check every tap against
  // the f32 im2col of the same image: dequantize(row value) must equal the
  // quantized-then-dequantized pixel, with padding taps exactly zero.
  tensor::ConvGeometry g;
  g.channels = 3;
  g.in_h = 5;
  g.in_w = 4;
  g.kernel_h = g.kernel_w = 3;
  g.stride = 2;
  g.pad = 1;
  const std::int64_t numel = g.channels * g.in_h * g.in_w;
  util::Rng rng(123);
  std::vector<float> image(static_cast<std::size_t>(numel));
  for (auto& v : image) v = rng.next_float() * 2.0f - 1.0f;
  QuantParams qp;
  ASSERT_EQ(tensor::quant::activation_params(
                tensor::quant::batch_range(image.data(), numel), &qp),
            CalibStatus::kOk);
  std::vector<std::uint8_t> qimg(static_cast<std::size_t>(numel));
  tensor::quant::quantize_u8(image.data(), qimg.data(), numel, qp);

  const std::int64_t rows = g.col_rows(), cols = g.col_cols();
  std::vector<std::uint8_t> lowered(static_cast<std::size_t>(rows * cols));
  tensor::quant::im2row_u8(qimg.data(), g,
                           static_cast<std::uint8_t>(qp.zero_point), lowered.data());
  std::vector<float> col(static_cast<std::size_t>(rows * cols));
  tensor::im2col(image.data(), g, col.data());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      // im2row is [cols, rows] — the transpose of im2col's [rows, cols].
      const float deq = tensor::quant::dequantize_value(
          lowered[static_cast<std::size_t>(c * rows + r)], qp);
      const float ref = col[static_cast<std::size_t>(r * cols + c)];
      if (ref == 0.0f) {
        // Padding or a zero pixel: both quantize to a value within half a
        // scale step of zero; padding taps are exactly zp.
        EXPECT_LE(std::fabs(deq), 0.5f * qp.scale + 1e-6f);
      } else {
        EXPECT_LE(std::fabs(deq - ref), 0.5f * qp.scale + 1e-6f);
      }
    }
  }
}

TEST(QuantPrimitives, ObserversAreDeterministic) {
  util::Rng rng(9);
  std::vector<float> batch1(64), batch2(64);
  for (auto& v : batch1) v = rng.next_float() * 4.0f - 2.0f;
  for (auto& v : batch2) v = rng.next_float() * 2.0f - 0.5f;
  tensor::quant::MinMaxObserver mm1, mm2;
  for (auto* o : {&mm1, &mm2}) {
    o->observe(batch1.data(), 64);
    o->observe(batch2.data(), 64);
  }
  EXPECT_EQ(mm1.range().lo, mm2.range().lo);
  EXPECT_EQ(mm1.range().hi, mm2.range().hi);
}

// --- Calibration fault sites ---

TEST(QuantFault, CalibNanSiteForcesTypedStatus) {
  util::fault::disarm_all();
  util::Rng rng(5);
  std::vector<float> x(32);
  for (auto& v : x) v = rng.next_float();
  const tensor::quant::Range range = tensor::quant::batch_range(x.data(), 32);
  QuantParams qp;
  ASSERT_EQ(tensor::quant::activation_params(range, &qp), CalibStatus::kOk);
  util::fault::arm("quant.calib_nan");
  EXPECT_EQ(tensor::quant::activation_params(range, &qp), CalibStatus::kCalibNan);
  EXPECT_GE(util::fault::hits("quant.calib_nan"), 1u);
  util::fault::disarm_all();
}

TEST(QuantFault, ScaleZeroSiteForcesTypedStatus) {
  util::fault::disarm_all();
  std::vector<float> x(32, 1.5f);
  const tensor::quant::Range range = tensor::quant::batch_range(x.data(), 32);
  QuantParams qp;
  ASSERT_EQ(tensor::quant::activation_params(range, &qp), CalibStatus::kOk);
  util::fault::arm("quant.scale_zero");
  EXPECT_EQ(tensor::quant::activation_params(range, &qp), CalibStatus::kScaleZero);
  EXPECT_GE(util::fault::hits("quant.scale_zero"), 1u);
  util::fault::disarm_all();
}

TEST(QuantFault, NonFiniteRangeIsCalibNanWithoutInjection) {
  std::vector<float> x = {1.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f};
  QuantParams qp;
  EXPECT_EQ(tensor::quant::activation_params(tensor::quant::batch_range(x.data(), 3), &qp),
            CalibStatus::kCalibNan);
  // Empty range (nothing observed) is also kCalibNan.
  EXPECT_EQ(tensor::quant::activation_params(tensor::quant::Range{}, &qp),
            CalibStatus::kCalibNan);
}

// --- QuantizedInferencePlan ---

data::Dataset small_dataset(std::int64_t num_classes, std::int64_t per_class,
                            std::uint64_t seed = 42) {
  data::SynthCifarConfig config;
  config.num_classes = num_classes;
  config.samples_per_class = per_class;
  config.seed = seed;
  return data::make_synth_cifar(config);
}

TEST(QuantPlan, UncalibratedRunThrows) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/3);
  nn::QuantizedInferencePlan plan(m.net, m.input_chw, /*last_layer=*/2, 4);
  EXPECT_FALSE(plan.calibrated());
  const data::Dataset ds = small_dataset(4, 2);
  Tensor out(plan.output_shape(4));
  const TensorView in(ds.images.view().data(), Shape{4, 3, 32, 32});
  EXPECT_THROW(plan.run_batch(in, out.view()), std::logic_error);
}

TEST(QuantPlan, VggCutIsFullyInt8AndCloseToF32) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/3);
  const data::Dataset ds = small_dataset(4, 8);  // 32 samples
  const std::size_t cut = 4;  // conv/relu/conv/relu/maxpool
  nn::QuantizedInferencePlan qplan(m.net, m.input_chw, cut, /*max_batch=*/8);
  const nn::CalibrationReport& report = qplan.calibrate(ds.images.view(), 8);
  EXPECT_TRUE(report.calibrated);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.int8_layers, 0);
  EXPECT_EQ(report.fallback_layers, 0);  // vgg16s prefix is fully int8-capable

  nn::InferencePlan fplan(m.net, m.input_chw, cut, 8);
  const TensorView in(ds.images.view().data(), Shape{8, 3, 32, 32});
  Tensor qout(qplan.output_shape(8));
  Tensor fout(fplan.output_shape(8));
  qplan.run_batch(in, qout.view());
  fplan.run_batch(in, fout.view());
  // 8-bit activations + weights after two convs: small relative error.
  double err = 0.0, ref = 0.0;
  for (std::int64_t i = 0; i < qout.numel(); ++i) {
    err += static_cast<double>(qout[i] - fout[i]) * (qout[i] - fout[i]);
    ref += static_cast<double>(fout[i]) * fout[i];
  }
  ASSERT_GT(ref, 0.0);
  EXPECT_LT(std::sqrt(err / ref), 0.1)
      << "relative L2 error " << std::sqrt(err / ref);
}

TEST(QuantPlan, OutputBitwiseInvariantAcrossThreadCounts) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/7);
  const data::Dataset ds = small_dataset(4, 8);
  const std::size_t cut = 6;
  nn::QuantizedInferencePlan plan(m.net, m.input_chw, cut, /*max_batch=*/8);
  plan.calibrate(ds.images.view(), 8);
  const TensorView in(ds.images.view().data(), Shape{8, 3, 32, 32});
  Tensor serial(plan.output_shape(8));
  Tensor threaded(plan.output_shape(8));
  util::set_thread_count(1);
  plan.run_batch(in, serial.view());
  util::set_thread_count(4);
  plan.run_batch(in, threaded.view());
  util::set_thread_count(1);
  ASSERT_EQ(serial.numel(), threaded.numel());
  EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                        static_cast<std::size_t>(serial.numel()) * sizeof(float)),
            0);
}

TEST(QuantPlan, CalibrationIsDeterministic) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/5);
  const data::Dataset ds = small_dataset(4, 6);
  const std::size_t cut = 4;
  const TensorView in(ds.images.view().data(), Shape{6, 3, 32, 32});

  auto run_once = [&](nn::QuantizedInferencePlan& plan) {
    plan.calibrate(ds.images.view(), 8);
    Tensor out(plan.output_shape(6));
    plan.run_batch(in, out.view());
    return out;
  };
  nn::QuantizedInferencePlan p1(m.net, m.input_chw, cut, 8);
  nn::QuantizedInferencePlan p2(m.net, m.input_chw, cut, 8);
  const Tensor a = run_once(p1);
  const Tensor b = run_once(p2);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)), 0);
  // Re-calibrating the same plan on the same images reproduces the output.
  const Tensor c = run_once(p1);
  EXPECT_EQ(std::memcmp(a.data(), c.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)), 0);
}

TEST(QuantPlan, BlockModelFallsBackToF32Bitwise) {
  // mobilenetv2s's top level is residual blocks — nothing is int8-capable,
  // so the quantized plan must reproduce the f32 plan bit for bit and
  // report every layer as a (policy, not calibration) fallback.
  models::ZooModel m = models::make_model("mobilenetv2s", 4, /*seed=*/3);
  const data::Dataset ds = small_dataset(4, 4);
  const std::size_t cut = 4;
  nn::QuantizedInferencePlan qplan(m.net, m.input_chw, cut, 8);
  const nn::CalibrationReport& report = qplan.calibrate(ds.images.view(), 8);
  EXPECT_EQ(report.int8_layers, 0);
  EXPECT_GT(report.fallback_layers, 0);
  EXPECT_EQ(report.calibration_fallbacks, 0);

  nn::InferencePlan fplan(m.net, m.input_chw, cut, 8);
  const TensorView in(ds.images.view().data(), Shape{8, 3, 32, 32});
  Tensor qout(qplan.output_shape(8));
  Tensor fout(fplan.output_shape(8));
  qplan.run_batch(in, qout.view());
  fplan.run_batch(in, fout.view());
  EXPECT_EQ(std::memcmp(qout.data(), fout.data(),
                        static_cast<std::size_t>(qout.numel()) * sizeof(float)),
            0);
}

TEST(QuantPlan, CalibrationFaultForcesCountedF32Fallback) {
  // Arm quant.scale_zero on every hit: every boundary calibration fails, so
  // every int8-capable layer must demote to f32 WITH the counter — the
  // no-silent-fallback contract — and the plan must still run, now matching
  // the f32 plan bitwise.
  util::fault::disarm_all();
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/3);
  const data::Dataset ds = small_dataset(4, 4);
  const std::size_t cut = 4;
  nn::QuantizedInferencePlan qplan(m.net, m.input_chw, cut, 8);
  util::fault::arm_every("quant.scale_zero");
  const nn::CalibrationReport report = qplan.calibrate(ds.images.view(), 8);
  util::fault::disarm_all();
  EXPECT_TRUE(report.calibrated);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.int8_layers, 0);
  EXPECT_GT(report.calibration_fallbacks, 0);
  bool saw_status = false;
  for (const CalibStatus s : report.boundary_status)
    if (s == CalibStatus::kScaleZero) saw_status = true;
  EXPECT_TRUE(saw_status);

  nn::InferencePlan fplan(m.net, m.input_chw, cut, 8);
  const TensorView in(ds.images.view().data(), Shape{8, 3, 32, 32});
  Tensor qout(qplan.output_shape(8));
  Tensor fout(fplan.output_shape(8));
  qplan.run_batch(in, qout.view());
  fplan.run_batch(in, fout.view());
  EXPECT_EQ(std::memcmp(qout.data(), fout.data(),
                        static_cast<std::size_t>(qout.numel()) * sizeof(float)),
            0);

  // quant.calib_nan drives the same demotion through the other status.
  util::fault::arm_every("quant.calib_nan");
  const nn::CalibrationReport nan_report = qplan.calibrate(ds.images.view(), 8);
  util::fault::disarm_all();
  EXPECT_EQ(nan_report.int8_layers, 0);
  EXPECT_GT(nan_report.calibration_fallbacks, 0);
}

TEST(QuantPlan, OversizedBatchRunsAsBurst) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/3);
  const data::Dataset ds = small_dataset(4, 8);
  nn::QuantizedInferencePlan plan(m.net, m.input_chw, 4, /*max_batch=*/4);
  plan.calibrate(ds.images.view(), 4);
  // Batch 8 > max_batch 4: served by a throwaway burst workspace, and the
  // rows must equal two planned batches of 4.
  const TensorView all = ds.images.view();
  Tensor burst(plan.output_shape(8));
  plan.run_batch(TensorView(all.data(), Shape{8, 3, 32, 32}), burst.view());
  Tensor halves(plan.output_shape(8));
  const std::int64_t f = plan.out_features();
  for (int h = 0; h < 2; ++h) {
    TensorView rows(halves.data() + h * 4 * f, plan.output_shape(4));
    plan.run_batch(TensorView(all.data() + h * 4 * 3 * 32 * 32, Shape{4, 3, 32, 32}), rows);
  }
  EXPECT_EQ(std::memcmp(burst.data(), halves.data(),
                        static_cast<std::size_t>(burst.numel()) * sizeof(float)),
            0);
}

TEST(QuantPlan, ExtractFeaturesMatchesDirectRuns) {
  models::ZooModel m = models::make_model("vgg16s", 4, /*seed=*/9);
  const data::Dataset ds = small_dataset(4, 5);  // 20 samples, odd vs batch 8
  nn::QuantizedInferencePlan plan(m.net, m.input_chw, 4, 8);
  plan.calibrate(ds.images.view(), 8);
  const core::ExtractedFeatures feats = core::extract_features(plan, ds, 8);
  EXPECT_EQ(feats.values.shape()[0], ds.size());
  EXPECT_EQ(feats.values.shape()[1], plan.out_features());
  Tensor direct(plan.output_shape(ds.size()));
  plan.run_batch(ds.images.view(), direct.view());
  EXPECT_EQ(std::memcmp(feats.values.data(), direct.data(),
                        static_cast<std::size_t>(direct.numel()) * sizeof(float)),
            0);
}

// --- HD classifier int8 scoring ---

TEST(QuantClassifier, EvaluateQuantizedMatchesPackedPredictions) {
  util::Rng rng(31);
  const std::int64_t dim = 500, classes = 6, samples = 40;
  hd::HdClassifier classifier(classes, dim);
  std::vector<hd::Hypervector> train;
  std::vector<std::int64_t> labels;
  std::vector<float> row(static_cast<std::size_t>(dim));
  for (std::int64_t i = 0; i < samples; ++i) {
    for (auto& v : row) v = rng.next_float() * 2.0f - 1.0f;
    train.push_back(hd::Hypervector::from_sign(row.data(), dim));
    labels.push_back(i % classes);
  }
  classifier.bundle_init(train, labels);
  // The gemm_s8-based evaluate must agree with the packed popcount
  // single-sample path on every prediction.
  const std::vector<hd::Hypervector> qclasses = classifier.quantized_classes();
  std::int64_t agree = 0;
  for (std::int64_t i = 0; i < samples; ++i) {
    const std::int64_t packed = hd::HdClassifier::predict_quantized(
        qclasses, train[static_cast<std::size_t>(i)]);
    if (packed == labels[static_cast<std::size_t>(i)]) ++agree;
  }
  const double packed_acc = static_cast<double>(agree) / static_cast<double>(samples);
  EXPECT_DOUBLE_EQ(classifier.evaluate_quantized(train, labels), packed_acc);
}

// --- Serving integration ---

TEST(QuantServe, QuantizedBatchesCounterAdvances) {
  const std::int64_t kClasses = 4;
  const std::size_t kCut = 4;
  data::SynthCifarConfig dconfig;
  dconfig.num_classes = kClasses;
  dconfig.samples_per_class = 8;
  const data::Dataset train = data::make_synth_cifar(dconfig);

  core::NshdConfig nconfig;
  nconfig.dim = 512;
  nconfig.manifold_features = 32;
  nconfig.epochs = 2;
  nconfig.use_kd = false;
  nconfig.train_manifold = false;

  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 4;
  auto bundle = std::make_unique<serve::ModelBundle>(
      models::make_model("vgg16s", kClasses, 7), kCut, nconfig, config.max_batch);
  const core::ExtractedFeatures features =
      core::extract_features(bundle->plan, train, config.max_batch);
  bundle->nshd.train(features, train.labels, nullptr);
  const nn::CalibrationReport& report =
      bundle->enable_quantized(train.images.view(), config.max_batch);
  ASSERT_TRUE(report.calibrated);
  EXPECT_GT(report.int8_layers, 0);

  serve::Engine engine(config);
  engine.register_model("m", std::move(bundle));
  std::vector<std::future<serve::Response>> futures(4);
  const std::int64_t s = train.sample_shape().numel();
  for (int i = 0; i < 4; ++i) {
    Tensor image(Shape{1, 3, 32, 32});
    std::memcpy(image.data(), train.images.data() + i * s,
                static_cast<std::size_t>(s) * sizeof(float));
    ASSERT_EQ(engine.submit("m", std::move(image), &futures[static_cast<std::size_t>(i)]),
              serve::SubmitStatus::kOk);
  }
  for (auto& f : futures) {
    const serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::RequestStatus::kOk);
  }
  const serve::EngineStats stats = engine.stats();
  EXPECT_GE(stats.quantized_batches, 1u);
  EXPECT_EQ(stats.quantized_batches, stats.batches);
  engine.shutdown();
}

}  // namespace
}  // namespace nshd
