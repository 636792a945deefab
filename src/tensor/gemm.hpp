// Single-precision GEMM kernels, plus the int8 GEMM family.
//
// All heavy math in the NN substrate funnels through these routines:
// convolution (via im2col), linear layers, HD random projection, class
// hypervector similarity banks.  The kernels are register-blocked
// micro-kernels on the fixed-width SIMD layer (tensor/simd.hpp): `gemm`
// packs B into NR-wide panels through a per-thread Workspace and holds a
// 4-row x 2-vector C tile in registers across the whole K loop; `gemm_bt`
// runs 2x4 blocks of vectorized dot products; `gemv`/`gemv_t`/`dot` use
// multi-accumulator vector loops.  Every C element has one fixed
// accumulation order per binary — independent of NSHD_THREADS, because
// parallel chunk boundaries depend only on the range and grain, which keeps
// planned inference and training bitwise NSHD_THREADS-invariant.
//
// The int8 GEMMs are the one place that picks a kernel at run time rather
// than at compile time (see Int8Kernel): every int8 kernel computes the
// same exact integers, so the choice moves speed, never a result bit.
#pragma once

#include <cstdint>

namespace nshd::tensor {

/// C[M,N] = A[M,K] * B[K,N] (+ C if accumulate).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate = false);

/// C[M,N] = A[M,K] * B[N,K]^T (+ C if accumulate).
void gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

/// Same contract as gemm_bt, but transpose-packs B into the `gemm` panel
/// format and runs the register-tiled micro-kernel — roughly 2x faster when
/// K is large (the dW = dOut * col^T shape in conv/linear backward).  The
/// per-element reduction order differs from gemm_bt's (sequential K chain
/// instead of lane-split + hsum), though it is still fixed and
/// NSHD_THREADS-invariant; use only where bitwise compatibility with
/// gemm_bt outputs is not required (gradient accumulation).
void gemm_bt_packed(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate = false);

/// C[M,N] = A[K,M]^T * B[K,N] (+ C if accumulate).
void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

/// y[M] = A[M,N] * x[N].
void gemv(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n);

/// y[N] = A[M,N]^T * x[M].
void gemv_t(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n);

/// Dot product of two length-n vectors.
float dot(const float* a, const float* b, std::int64_t n);

/// The int8 GEMM kernels.  All of them compute C_s32 = A_s8 * B_u8^T
/// exactly (s32 accumulation with no saturating step), so they return
/// identical integers and may stand in for one another freely.
enum class Int8Kernel {
  /// Weights sign-extended to s16, then `pmaddwd`-style s16 pair madds on
  /// the compile-time simd.hpp ISA.  Runs on every host and build.
  kMaddS16,
  /// `vpdpbusd` in its VEX encoding: a u8 x s8 4-way dot into s32 lanes,
  /// 256-bit registers.  Hosts with AVX-VNNI.
  kAvxVnni,
  /// The same instruction in its EVEX encoding.  Hosts with AVX512-VNNI
  /// and AVX512-VL.
  kAvx512Vnni,
};

/// The kernel every int8 entry point below runs in this process, selected
/// once from CPUID on first use: kAvx512Vnni if the host has it (its 32
/// vector registers hold the whole 4x3 tile), else kAvxVnni, else kMaddS16.
/// Always kMaddS16 on non-x86 targets and in NSHD_SIMD_FORCE_SCALAR builds.
Int8Kernel int8_kernel();

/// Whether this host and build can run `kernel` (kMaddS16 always can).
bool int8_kernel_supported(Int8Kernel kernel);

/// "madd_s16", "avx_vnni" or "avx512_vnni".
const char* int8_kernel_name(Int8Kernel kernel);
/// The name of int8_kernel().
const char* int8_kernel_name();

/// Int8 GEMM in BT form: C_s32[M,N] = A_s8[M,K] * B_u8[N,K]^T.  A holds
/// quantized weight (or bipolar class-bank) rows, B holds quantized
/// activation rows — im2row patches or unpacked query bits — so both
/// operands stream contiguously along K with no packing step.  Runs on
/// int8_kernel(): the VNNI kernels read the s8 rows as they are; kMaddS16
/// first sign-extends them to s16 once per call.
void gemm_s8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c,
             std::int64_t m, std::int64_t k, std::int64_t n);

/// gemm_s8 with row strides lda/ldb >= K, on an explicit kernel.  A kernel
/// the host cannot run (see int8_kernel_supported) is replaced by kMaddS16,
/// which returns the same integers.  The VNNI kernels walk K in 32-byte
/// strips, then at most one 16-byte strip, then a scalar tail; a caller that
/// pads both operands' rows to a multiple of simd::kDotBytes — weights
/// zero-filled — and passes that padded count as `k` never runs the tail.
void gemm_s8_u8(Int8Kernel kernel, const std::int8_t* a, std::int64_t lda,
                const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                std::int64_t m, std::int64_t k, std::int64_t n);

/// The kMaddS16 kernel with the weight operand already widened:
/// C_s32[M,N] = A_s16[M,K] * B_u8[N,K]^T, with row strides lda/ldb >= K.
/// Callers that keep widened weights around (the quantized inference plan
/// stores them per layer on hosts without VNNI, zero-padded to a whole
/// simd::kDotBytes strip) skip the per-call widening pass entirely — and
/// when `k` itself is passed as the padded count, the kernel never runs a
/// scalar K tail: zero-padded weight lanes annihilate whatever initialized
/// bytes sit in the activation rows' padding.
void gemm_s16_u8(const std::int16_t* a, std::int64_t lda,
                 const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                 std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace nshd::tensor
