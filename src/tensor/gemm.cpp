#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"
#include "util/thread_pool.hpp"

// The run-time-selected VNNI int8 kernels exist on x86 GCC/Clang builds only,
// and never in NSHD_SIMD_FORCE_SCALAR builds.
#if !defined(NSHD_SIMD_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__GNUC__)
#define NSHD_INT8_VNNI 1
#include <immintrin.h>
#endif

namespace nshd::tensor {

namespace {

using simd::VF;
using simd::kWidth;

// Rows of C per parallel chunk.  Fixed (never derived from the thread
// count) so the partitioning — and with it every float — is identical for
// any NSHD_THREADS value.  Each chunk owns a disjoint row range of C.
constexpr std::int64_t kRowGrain = 16;
// Rows per parallel chunk for gemv (rows are cheap: one dot each).
constexpr std::int64_t kGemvGrain = 16;
// Columns of y per parallel chunk for gemv_t (chunks own disjoint y spans).
// Wide spans keep each chunk's walk over A close to a sequential stream —
// narrow ones turn the memory-bound kernel into strided hops — so the grain
// only splits matrices wide enough that fragmentation is amortized.
constexpr std::int64_t kGemvTColGrain = 4096;

// Micro-tile shape: MR rows by NRV vector registers of C accumulators held
// across the whole K loop (8 independent FMA chains).  kRowGrain is a
// multiple of MR so row grouping is identical for every chunk partition.
constexpr int MR = 4;
constexpr int NRV = 2;
constexpr std::int64_t NR = NRV * kWidth;
static_assert(kRowGrain % MR == 0);

// Per-thread arena for packed B panels.  Frame-scoped per call, so nested
// gemms (a worker thread calling gemm inside an outer parallel_for) each
// see their own stack of panels.
thread_local Workspace tl_pack_ws;

/// Packs row-major B[K,N] into column panels of NR contiguous floats per k
/// step, zero-padded past column N, so the micro-kernel's two B loads are
/// unit-stride regardless of n.
void pack_b_panels(const float* b, float* packed, std::int64_t k, std::int64_t n) {
  const std::int64_t panels = (n + NR - 1) / NR;
  util::parallel_for(0, panels, 1, [=](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t jp = q0; jp < q1; ++jp) {
      const std::int64_t j0 = jp * NR;
      const std::int64_t cols = std::min<std::int64_t>(NR, n - j0);
      float* dst = packed + jp * k * NR;
      for (std::int64_t p = 0; p < k; ++p, dst += NR) {
        const float* src = b + p * n + j0;
        for (std::int64_t jj = 0; jj < cols; ++jj) dst[jj] = src[jj];
        for (std::int64_t jj = cols; jj < NR; ++jj) dst[jj] = 0.0f;
      }
    }
  });
}

/// ROWS x NR register tile of A[i..i+ROWS) times one packed panel, written
/// to `tile` (row stride NR).  Accumulation runs p = 0..k in order within
/// each register lane, so every C element has one fixed summation order.
template <int ROWS>
inline void gemm_micro(const float* a, std::int64_t lda, const float* panel,
                       std::int64_t k, float* tile) {
  VF acc[ROWS][NRV];
  for (int r = 0; r < ROWS; ++r)
    for (int v = 0; v < NRV; ++v) acc[r][v] = simd::vzero();
  const float* bp = panel;
  for (std::int64_t p = 0; p < k; ++p, bp += NR) {
    const VF b0 = simd::vload(bp);
    const VF b1 = simd::vload(bp + kWidth);
    for (int r = 0; r < ROWS; ++r) {
      const VF ar = simd::vset1(a[r * lda + p]);
      acc[r][0] = simd::vfmadd(ar, b0, acc[r][0]);
      acc[r][1] = simd::vfmadd(ar, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    simd::vstore(tile + r * NR, acc[r][0]);
    simd::vstore(tile + r * NR + kWidth, acc[r][1]);
  }
}

/// Merges a ROWS x `cols` tile into C (only valid columns are touched, so
/// panel zero-padding never leaks past N).
template <int ROWS>
inline void store_tile(const float* tile, float* cbase, std::int64_t ldc,
                       std::int64_t cols, bool accumulate) {
  for (int r = 0; r < ROWS; ++r) {
    float* ci = cbase + r * ldc;
    const float* ti = tile + r * NR;
    if (accumulate) {
      for (std::int64_t jj = 0; jj < cols; ++jj) ci[jj] += ti[jj];
    } else {
      for (std::int64_t jj = 0; jj < cols; ++jj) ci[jj] = ti[jj];
    }
  }
}

/// ROWS x COLS block of dot products for the BT form: vector partials per
/// (i,j) pair over the shared K axis, fixed-order hsum, then a scalar K
/// tail — one summation order per element, independent of chunking.
template <int ROWS, int COLS>
inline void bt_tile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                    std::int64_t k, float* out, std::int64_t ldo, bool accumulate) {
  VF acc[ROWS][COLS];
  for (int r = 0; r < ROWS; ++r)
    for (int cc = 0; cc < COLS; ++cc) acc[r][cc] = simd::vzero();
  std::int64_t p = 0;
  for (; p + kWidth <= k; p += kWidth) {
    VF av[ROWS];
    for (int r = 0; r < ROWS; ++r) av[r] = simd::vload(a + r * lda + p);
    for (int cc = 0; cc < COLS; ++cc) {
      const VF bv = simd::vload(b + cc * ldb + p);
      for (int r = 0; r < ROWS; ++r) acc[r][cc] = simd::vfmadd(av[r], bv, acc[r][cc]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    for (int cc = 0; cc < COLS; ++cc) {
      float s = simd::vhsum(acc[r][cc]);
      for (std::int64_t q = p; q < k; ++q) s += a[r * lda + q] * b[cc * ldb + q];
      float* o = out + r * ldo + cc;
      *o = accumulate ? *o + s : s;
    }
  }
}

template <int ROWS>
inline void bt_dispatch_cols(std::int64_t cols, const float* a, std::int64_t lda,
                             const float* b, std::int64_t ldb, std::int64_t k,
                             float* out, std::int64_t ldo, bool accumulate) {
  switch (cols) {
    case 4: bt_tile<ROWS, 4>(a, lda, b, ldb, k, out, ldo, accumulate); break;
    case 3: bt_tile<ROWS, 3>(a, lda, b, ldb, k, out, ldo, accumulate); break;
    case 2: bt_tile<ROWS, 2>(a, lda, b, ldb, k, out, ldo, accumulate); break;
    default: bt_tile<ROWS, 1>(a, lda, b, ldb, k, out, ldo, accumulate); break;
  }
}

/// Multi-accumulator vector dot with a fixed reduction schedule: four
/// independent chains over 4*kWidth-wide strips, then one chain over
/// kWidth strips, pairwise-combined hsum, scalar tail.
inline float dot_kernel(const float* a, const float* b, std::int64_t n) {
  VF acc0 = simd::vzero(), acc1 = simd::vzero(), acc2 = simd::vzero(), acc3 = simd::vzero();
  std::int64_t i = 0;
  for (; i + 4 * kWidth <= n; i += 4 * kWidth) {
    acc0 = simd::vfmadd(simd::vload(a + i), simd::vload(b + i), acc0);
    acc1 = simd::vfmadd(simd::vload(a + i + kWidth), simd::vload(b + i + kWidth), acc1);
    acc2 = simd::vfmadd(simd::vload(a + i + 2 * kWidth), simd::vload(b + i + 2 * kWidth), acc2);
    acc3 = simd::vfmadd(simd::vload(a + i + 3 * kWidth), simd::vload(b + i + 3 * kWidth), acc3);
  }
  for (; i + kWidth <= n; i += kWidth)
    acc0 = simd::vfmadd(simd::vload(a + i), simd::vload(b + i), acc0);
  float s = simd::vhsum(simd::vadd(simd::vadd(acc0, acc1), simd::vadd(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// Transpose-packs row-major B[N,K] into the same NR-wide column panels
/// pack_b_panels produces for B^T[K,N]: panel jp interleaves rows
/// j0..j0+cols of B at each k step, zero-padded past column N.  Reads are
/// unit-stride per source row and the write scatter stays inside a
/// kPBlock*NR*4-byte window, so the pack runs at copy speed.
void pack_bt_panels(const float* b, float* packed, std::int64_t k, std::int64_t n) {
  const std::int64_t panels = (n + NR - 1) / NR;
  constexpr std::int64_t kPBlock = 128;
  util::parallel_for(0, panels, 1, [=](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t jp = q0; jp < q1; ++jp) {
      const std::int64_t j0 = jp * NR;
      const std::int64_t cols = std::min<std::int64_t>(NR, n - j0);
      float* dst = packed + jp * k * NR;
      for (std::int64_t p0 = 0; p0 < k; p0 += kPBlock) {
        const std::int64_t p1 = std::min<std::int64_t>(k, p0 + kPBlock);
        for (std::int64_t jj = 0; jj < cols; ++jj) {
          const float* src = b + (j0 + jj) * k;
          for (std::int64_t p = p0; p < p1; ++p) dst[p * NR + jj] = src[p];
        }
        for (std::int64_t jj = cols; jj < NR; ++jj)
          for (std::int64_t p = p0; p < p1; ++p) dst[p * NR + jj] = 0.0f;
      }
    }
  });
}

/// Row loop shared by gemm and gemm_bt_packed once B is in panel form.
void gemm_packed_rows(const float* a, const float* packed, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate) {
  const std::int64_t panels = (n + NR - 1) / NR;
  util::parallel_for(0, m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    alignas(64) float tile[MR * NR];
    for (std::int64_t jp = 0; jp < panels; ++jp) {
      const float* panel = packed + jp * k * NR;
      const std::int64_t j0 = jp * NR;
      const std::int64_t cols = std::min<std::int64_t>(NR, n - j0);
      std::int64_t i = r0;
      for (; i + MR <= r1; i += MR) {
        gemm_micro<MR>(a + i * k, k, panel, k, tile);
        store_tile<MR>(tile, c + i * n + j0, n, cols, accumulate);
      }
      for (; i < r1; ++i) {
        gemm_micro<1>(a + i * k, k, panel, k, tile);
        store_tile<1>(tile, c + i * n + j0, n, cols, accumulate);
      }
    }
  });
}

/// The kMaddS16 tile for int8_rows: R pre-widened s16 weight rows against C
/// u8 activation rows — one output tile of the BT-form int8 GEMM.  Each
/// widened activation strip is shared by all R madd chains and each weight
/// strip by all C columns, so the per-multiply widening cost falls as the
/// tile grows; the weight operand
/// is sign-extended to s16 ahead of time (by the caller or gemm_s8_u8),
/// which keeps the inner iteration free of shuffle-port sign extension
/// entirely.  The full 4x3 tile holds 12 accumulators plus 3 activation
/// strips and 1 weight strip: exactly the 16 ymm registers of AVX2.  On
/// SSE2 each widened strip is two xmm halves, so the tile wants 20 of the
/// 16 xmm registers and spills; it still measured within 2% of a 4x2 tile
/// there, so one tile shape serves every ISA.  Exact integer accumulation —
/// no ordering caveats.
struct MaddS16Tile {
  using Weight = std::int16_t;

  template <int R, int C>
  static void run(const std::int16_t* a, std::int64_t lda,
                  const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                  std::int64_t ldc, std::int64_t k) {
    simd::VS32 acc[R][C];
    for (int r = 0; r < R; ++r)
      for (int j = 0; j < C; ++j) acc[r][j] = simd::vqzero();
    std::int64_t p = 0;
    for (; p + simd::kDotBytes <= k; p += simd::kDotBytes) {
      simd::VQA bv[C];
      for (int j = 0; j < C; ++j) bv[j] = simd::widen_u8(b + j * ldb + p);
      for (int r = 0; r < R; ++r) {
        const simd::VQA av = simd::load_s16(a + r * lda + p);
        for (int j = 0; j < C; ++j)
          acc[r][j] = simd::madd_s16(acc[r][j], av, bv[j]);
      }
    }
    auto tail = [&](int r, int j, std::int32_t s) {
      for (std::int64_t q = p; q < k; ++q) {
        s += static_cast<std::int32_t>(b[j * ldb + q]) *
             static_cast<std::int32_t>(a[r * lda + q]);
      }
      return s;
    };
    if constexpr (R == 4) {
      // Full-height tile: reduce all four row accumulators of each column in
      // one grouped shuffle tree.  At small K (conv1's K16 is two strips) the
      // per-output reduction dominates the tile, so this grouping matters.
      for (int j = 0; j < C; ++j) {
        std::int32_t s4[4];
        simd::vs32_hsum4(acc[0][j], acc[1][j], acc[2][j], acc[3][j], s4);
        for (int r = 0; r < 4; ++r) c[r * ldc + j] = tail(r, j, s4[r]);
      }
    } else {
      for (int r = 0; r < R; ++r)
        for (int j = 0; j < C; ++j)
          c[r * ldc + j] = tail(r, j, simd::vs32_hsum(acc[r][j]));
    }
  }
};

/// One column group of C tiles (columns [j, j+C)) over the whole row range.
template <class Tile, int C>
inline void int8_col_group(const typename Tile::Weight* a, std::int64_t lda,
                           const std::uint8_t* b, std::int64_t ldb,
                           std::int32_t* c, std::int64_t k, std::int64_t n,
                           std::int64_t r0, std::int64_t r1, std::int64_t j) {
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4)
    Tile::template run<4, C>(a + i * lda, lda, b + j * ldb, ldb, c + i * n + j, n, k);
  for (; i < r1; ++i)
    Tile::template run<1, C>(a + i * lda, lda, b + j * ldb, ldb, c + i * n + j, n, k);
}

/// Row-range tile driver shared by every int8 kernel (`Tile` supplies the
/// R x C output tile and the weight element type).  C is row-major [m, n]
/// with no stride (ldc == n).
///
/// Two loop orders, same tiles, same results (each C entry is produced by
/// one identical tile invocation either way): rows-outer re-streams all of B
/// once per 4-row group, so it wants B cache-resident; columns-outer
/// re-streams the chunk's A rows once per column group, so it wants those in
/// L1.  Early conv layers (small weight matrix, huge patch panel) fall badly
/// off the rows-outer cliff — B's per-tile runs are a few cache lines, too
/// short for the prefetcher, and the whole panel is re-streamed m/4 times —
/// so pick whichever order keeps the smaller operand resident.
template <class Tile>
inline void int8_rows(const typename Tile::Weight* a, std::int64_t lda,
                      const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t k, std::int64_t n, std::int64_t r0,
                      std::int64_t r1) {
  const std::int64_t a_chunk_bytes =
      (r1 - r0) * lda * static_cast<std::int64_t>(sizeof(typename Tile::Weight));
  if (n * ldb > a_chunk_bytes) {
    std::int64_t j = 0;
    for (; j + 3 <= n; j += 3) int8_col_group<Tile, 3>(a, lda, b, ldb, c, k, n, r0, r1, j);
    if (j + 2 <= n) {
      int8_col_group<Tile, 2>(a, lda, b, ldb, c, k, n, r0, r1, j);
      j += 2;
    }
    if (j < n) int8_col_group<Tile, 1>(a, lda, b, ldb, c, k, n, r0, r1, j);
    return;
  }
  std::int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const auto* ai = a + i * lda;
    std::int32_t* ci = c + i * n;
    std::int64_t j = 0;
    for (; j + 3 <= n; j += 3)
      Tile::template run<4, 3>(ai, lda, b + j * ldb, ldb, ci + j, n, k);
    if (j + 2 <= n) {
      Tile::template run<4, 2>(ai, lda, b + j * ldb, ldb, ci + j, n, k);
      j += 2;
    }
    if (j < n) Tile::template run<4, 1>(ai, lda, b + j * ldb, ldb, ci + j, n, k);
  }
  for (; i < r1; ++i) {
    const auto* ai = a + i * lda;
    std::int32_t* ci = c + i * n;
    std::int64_t j = 0;
    for (; j + 2 <= n; j += 2)
      Tile::template run<1, 2>(ai, lda, b + j * ldb, ldb, ci + j, n, k);
    if (j < n) Tile::template run<1, 1>(ai, lda, b + j * ldb, ldb, ci + j, n, k);
  }
}

#if defined(NSHD_INT8_VNNI)

// The VNNI kernels.  They are compiled into this otherwise baseline-ISA
// translation unit through function target attributes, never through -m
// flags (simd.hpp must mean one thing per binary), and run only after
// int8_kernel() has seen the feature in CPUID.
//
// One tile body serves both encodings of vpdpbusd.  VnniTile::run is built
// for plain AVX2 and reaches the instruction through its Dp policy.  GCC will
// not inline a VNNI function into an AVX2 one, so each of the two entry
// points (vnni_rows_vex / vnni_rows_evex) carries its VNNI target plus
// `flatten`, which inlines the shared row driver, the tile and the policy
// into one body compiled for that target.  Vectors pass by value only
// between AVX functions, so no ABI boundary is crossed.

#define NSHD_TARGET_AVX2 __attribute__((target("avx2")))
#define NSHD_TARGET_AVXVNNI __attribute__((target("avxvnni")))
#define NSHD_TARGET_AVX512VNNI __attribute__((target("avx512vnni,avx512vl")))

/// vpdpbusd (VEX): each s32 lane of acc += the 4-way dot of its u8 and s8
/// bytes.  The four products and their sum fit s32 with room to spare
/// (4 * 255 * 128 < 2^17), and the accumulate wraps rather than saturates
/// (unlike vpdpbusds), so the result is the exact integer dot.
struct DpbusdVex {
  NSHD_TARGET_AVXVNNI static __m256i dp(__m256i acc, __m256i u8, __m256i s8) {
    return _mm256_dpbusd_avx_epi32(acc, u8, s8);
  }
};

/// The same instruction, EVEX-encoded (AVX512-VNNI + AVX512-VL).
struct DpbusdEvex {
  NSHD_TARGET_AVX512VNNI static __m256i dp(__m256i acc, __m256i u8, __m256i s8) {
    return _mm256_dpbusd_epi32(acc, u8, s8);
  }
};

NSHD_TARGET_AVX2 inline std::int32_t hsum256(__m256i a) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// One K strip of operand bytes: 32, or 16 zero-extended when kHalf.
template <bool kHalf>
NSHD_TARGET_AVX2 inline __m256i load_strip(const void* p) {
  if constexpr (kHalf) {
    return _mm256_zextsi128_si256(_mm_loadu_si128(static_cast<const __m128i*>(p)));
  } else {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
}

/// out[0..3] = hsum256 of a, b, c, d in one shuffle tree (exact: integer adds).
NSHD_TARGET_AVX2 inline void hsum256x4(__m256i a, __m256i b, __m256i c, __m256i d,
                                       std::int32_t* out) {
  const __m256i t0 = _mm256_hadd_epi32(a, b);
  const __m256i t1 = _mm256_hadd_epi32(c, d);
  const __m256i t2 = _mm256_hadd_epi32(t0, t1);
  const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                  _mm256_extracti128_si256(t2, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

/// The VNNI output tile: the same BT form and R x C shapes as MaddS16Tile, on
/// raw s8 weight rows, with K in 32-byte strips (plus one 16-byte strip and
/// a scalar tail).  The 4x3 tile's 12 accumulators and operand strips just
/// exceed the 16 ymm registers of the VEX form, which spills a few of them
/// each strip; the EVEX form has 32 registers and keeps the whole loop in
/// them, which is why int8_kernel() prefers it where the host has both.
template <class Dp>
struct VnniTile {
  using Weight = std::int8_t;

  template <int R, int C>
  NSHD_TARGET_AVX2 static void run(const std::int8_t* a, std::int64_t lda,
                                   const std::uint8_t* b, std::int64_t ldb,
                                   std::int32_t* c, std::int64_t ldc,
                                   std::int64_t k) {
    __m256i acc[R][C];
    for (int r = 0; r < R; ++r)
      for (int j = 0; j < C; ++j) acc[r][j] = _mm256_setzero_si256();
    // A leading 16-byte strip (when K mod 32 is 16 or more; zero-extended,
    // so the high lanes add 0), then the 32-byte strips, so the accumulators
    // flow straight from the main loop into the reduction.  The two strip
    // bodies are spelled out: a lambda would not carry the target attribute,
    // and a helper taking `acc` by reference pins it to the stack.
    std::int64_t p = 0;
    if (k % (2 * simd::kDotBytes) >= simd::kDotBytes) {
      for (int j = 0; j < C; ++j) {
        const __m256i bv = load_strip<true>(b + j * ldb);
        for (int r = 0; r < R; ++r)
          acc[r][j] = Dp::dp(acc[r][j], bv, load_strip<true>(a + r * lda));
      }
      p = simd::kDotBytes;
    }
    for (; p + 2 * simd::kDotBytes <= k; p += 2 * simd::kDotBytes) {
      for (int j = 0; j < C; ++j) {
        const __m256i bv = load_strip<false>(b + j * ldb + p);
        for (int r = 0; r < R; ++r)
          acc[r][j] = Dp::dp(acc[r][j], bv, load_strip<false>(a + r * lda + p));
      }
    }
    auto tail = [&](int r, int j, std::int32_t s) {
      for (std::int64_t q = p; q < k; ++q) {
        s += static_cast<std::int32_t>(b[j * ldb + q]) *
             static_cast<std::int32_t>(a[r * lda + q]);
      }
      return s;
    };
    if constexpr (R == 4) {
      for (int j = 0; j < C; ++j) {
        std::int32_t s4[4];
        hsum256x4(acc[0][j], acc[1][j], acc[2][j], acc[3][j], s4);
        for (int r = 0; r < 4; ++r) c[r * ldc + j] = tail(r, j, s4[r]);
      }
    } else {
      for (int r = 0; r < R; ++r)
        for (int j = 0; j < C; ++j) c[r * ldc + j] = tail(r, j, hsum256(acc[r][j]));
    }
  }
};

NSHD_TARGET_AVXVNNI __attribute__((flatten)) void vnni_rows_vex(
    const std::int8_t* a, std::int64_t lda, const std::uint8_t* b,
    std::int64_t ldb, std::int32_t* c, std::int64_t k, std::int64_t n,
    std::int64_t r0, std::int64_t r1) {
  int8_rows<VnniTile<DpbusdVex>>(a, lda, b, ldb, c, k, n, r0, r1);
}

NSHD_TARGET_AVX512VNNI __attribute__((flatten)) void vnni_rows_evex(
    const std::int8_t* a, std::int64_t lda, const std::uint8_t* b,
    std::int64_t ldb, std::int32_t* c, std::int64_t k, std::int64_t n,
    std::int64_t r0, std::int64_t r1) {
  int8_rows<VnniTile<DpbusdEvex>>(a, lda, b, ldb, c, k, n, r0, r1);
}

#endif  // NSHD_INT8_VNNI

}  // namespace

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  Workspace& ws = tl_pack_ws;
  Workspace::Frame frame(ws);
  const std::int64_t panels = (n + NR - 1) / NR;
  float* packed = ws.alloc(panels * k * NR);
  pack_b_panels(b, packed, k, n);
  gemm_packed_rows(a, packed, c, m, k, n, accumulate);
}

void gemm_bt_packed(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  Workspace& ws = tl_pack_ws;
  Workspace::Frame frame(ws);
  const std::int64_t panels = (n + NR - 1) / NR;
  float* packed = ws.alloc(panels * k * NR);
  pack_bt_panels(b, packed, k, n);
  gemm_packed_rows(a, packed, c, m, k, n, accumulate);
}

void gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // C[i,j] = sum_p A[i,p] * B[j,p]: rows of both operands are contiguous, so
  // the tile is a 2x4 block of vectorized dot products (8 FMA chains).
  util::parallel_for(0, m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t j0 = 0; j0 < n; j0 += 4) {
      const std::int64_t cols = std::min<std::int64_t>(4, n - j0);
      const float* bj = b + j0 * k;
      std::int64_t i = r0;
      for (; i + 2 <= r1; i += 2)
        bt_dispatch_cols<2>(cols, a + i * k, k, bj, k, k, c + i * n + j0, n, accumulate);
      if (i < r1)
        bt_dispatch_cols<1>(cols, a + i * k, k, bj, k, k, c + i * n + j0, n, accumulate);
    }
  });
}

void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // C[i,j] = sum_p A[p,i] * B[p,j].  Walking A column-wise in the micro
  // kernel costs a strided scalar load per FMA, and B is re-streamed
  // unpacked for every row group — so instead transpose A once (cheap:
  // k*m floats vs the k*m*n FLOP gemm) and run the packed gemm kernel.
  // Per element the accumulation is the same p = 0..k FMA chain either
  // way, so the result is unchanged.
  if (m == 0 || n == 0) return;
  Workspace& ws = tl_pack_ws;
  Workspace::Frame frame(ws);
  float* at = ws.alloc(m * k);
  constexpr std::int64_t kBlock = 64;  // cache-blocked transpose
  for (std::int64_t p0 = 0; p0 < k; p0 += kBlock) {
    const std::int64_t p1 = std::min<std::int64_t>(k, p0 + kBlock);
    for (std::int64_t i0 = 0; i0 < m; i0 += kBlock) {
      const std::int64_t i1 = std::min<std::int64_t>(m, i0 + kBlock);
      for (std::int64_t p = p0; p < p1; ++p)
        for (std::int64_t i = i0; i < i1; ++i) at[i * k + p] = a[p * m + i];
    }
  }
  gemm(at, b, c, m, k, n, accumulate);
}

void gemv(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n) {
  util::parallel_for(0, m, kGemvGrain, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) y[i] = dot_kernel(a + i * n, x, n);
  });
}

void gemv_t(const float* a, const float* x, float* y, std::int64_t m, std::int64_t n) {
  // Chunks own disjoint column spans of y; rows are walked in order within
  // each chunk — 4 at a time, with chained fmadds that keep the exact
  // sequential i = 0..m accumulation order per y[j] — so the result is
  // identical regardless of the partition.  Blocking rows quarters the
  // passes over y and gives the prefetcher 4 concurrent row streams.
  util::parallel_for(0, n, kGemvTColGrain, [=](std::int64_t j0, std::int64_t j1) {
    std::memset(y + j0, 0, static_cast<std::size_t>(j1 - j0) * sizeof(float));
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
      if (x0 == 0.0f && x1 == 0.0f && x2 == 0.0f && x3 == 0.0f) continue;
      const float* a0 = a + i * n;
      const float* a1 = a0 + n;
      const float* a2 = a1 + n;
      const float* a3 = a2 + n;
      const VF v0 = simd::vset1(x0), v1 = simd::vset1(x1);
      const VF v2 = simd::vset1(x2), v3 = simd::vset1(x3);
      std::int64_t j = j0;
      for (; j + kWidth <= j1; j += kWidth) {
        VF acc = simd::vload(y + j);
        acc = simd::vfmadd(v0, simd::vload(a0 + j), acc);
        acc = simd::vfmadd(v1, simd::vload(a1 + j), acc);
        acc = simd::vfmadd(v2, simd::vload(a2 + j), acc);
        acc = simd::vfmadd(v3, simd::vload(a3 + j), acc);
        simd::vstore(y + j, acc);
      }
      for (; j < j1; ++j) {
        float t = y[j];
        t += x0 * a0[j];
        t += x1 * a1[j];
        t += x2 * a2[j];
        t += x3 * a3[j];
        y[j] = t;
      }
    }
    for (; i < m; ++i) {
      const float xi = x[i];
      if (xi == 0.0f) continue;
      const VF xv = simd::vset1(xi);
      const float* ai = a + i * n;
      std::int64_t j = j0;
      for (; j + kWidth <= j1; j += kWidth)
        simd::vstore(y + j, simd::vfmadd(xv, simd::vload(ai + j), simd::vload(y + j)));
      for (; j < j1; ++j) y[j] += xi * ai[j];
    }
  });
}

float dot(const float* a, const float* b, std::int64_t n) {
  return dot_kernel(a, b, n);
}

bool int8_kernel_supported(Int8Kernel kernel) {
  switch (kernel) {
    case Int8Kernel::kMaddS16: return true;
#if defined(NSHD_INT8_VNNI)
    case Int8Kernel::kAvxVnni:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avxvnni");
    case Int8Kernel::kAvx512Vnni:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512vnni") && __builtin_cpu_supports("avx512vl");
#endif
    default: return false;
  }
}

Int8Kernel int8_kernel() {
  static const Int8Kernel kernel =
      int8_kernel_supported(Int8Kernel::kAvx512Vnni) ? Int8Kernel::kAvx512Vnni
      : int8_kernel_supported(Int8Kernel::kAvxVnni)  ? Int8Kernel::kAvxVnni
                                                     : Int8Kernel::kMaddS16;
  return kernel;
}

const char* int8_kernel_name(Int8Kernel kernel) {
  switch (kernel) {
    case Int8Kernel::kMaddS16: return "madd_s16";
    case Int8Kernel::kAvxVnni: return "avx_vnni";
    case Int8Kernel::kAvx512Vnni: return "avx512_vnni";
  }
  return "unknown";
}

const char* int8_kernel_name() { return int8_kernel_name(int8_kernel()); }

void gemm_s8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c,
             std::int64_t m, std::int64_t k, std::int64_t n) {
  gemm_s8_u8(int8_kernel(), a, k, b, k, c, m, k, n);
}

void gemm_s8_u8(Int8Kernel kernel, const std::int8_t* a, std::int64_t lda,
                const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                std::int64_t m, std::int64_t k, std::int64_t n) {
  // Chunks own disjoint row ranges of C; kRowGrain is a multiple of 4, so
  // row grouping is the same for every partition (and the integer sums are
  // order-exact anyway).
  if (m == 0 || n == 0) return;
  if (!int8_kernel_supported(kernel)) kernel = Int8Kernel::kMaddS16;
#if defined(NSHD_INT8_VNNI)
  if (kernel != Int8Kernel::kMaddS16) {
    const auto rows = kernel == Int8Kernel::kAvxVnni ? vnni_rows_vex : vnni_rows_evex;
    util::parallel_for(0, m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
      rows(a, lda, b, ldb, c, k, n, r0, r1);
    });
    return;
  }
#endif
  // kMaddS16: widen the weight operand to s16 once up front — O(M*K)
  // against the O(M*K*N) madd work it strips out of the inner loop — then
  // run the tiled core.  The widened copy lives in the per-thread pack
  // arena, frame-scoped exactly like the f32 panel workspace.
  Workspace& ws = tl_pack_ws;
  Workspace::Frame frame(ws);
  auto* a16 = reinterpret_cast<std::int16_t*>(
      ws.alloc((m * k * static_cast<std::int64_t>(sizeof(std::int16_t)) + 3) / 4));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) a16[i * k + p] = a[i * lda + p];
  gemm_s16_u8(a16, k, b, ldb, c, m, k, n);
}

void gemm_s16_u8(const std::int16_t* a, std::int64_t lda,
                 const std::uint8_t* b, std::int64_t ldb, std::int32_t* c,
                 std::int64_t m, std::int64_t k, std::int64_t n) {
  if (m == 0 || n == 0) return;
  util::parallel_for(0, m, kRowGrain, [=](std::int64_t r0, std::int64_t r1) {
    int8_rows<MaddS16Tile>(a, lda, b, ldb, c, k, n, r0, r1);
  });
}

}  // namespace nshd::tensor
