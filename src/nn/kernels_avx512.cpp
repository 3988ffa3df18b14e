// AVX-512 kernel set (F+BW+VL). This is the only translation unit compiled
// with -mavx512f -mavx512bw -mavx512vl (per-file options in
// src/nn/CMakeLists.txt), so the binary stays runnable on narrower hosts:
// nothing here executes unless the runtime dispatch in simd.cpp selects it
// after a cpuid probe (or PP_FORCE_ISA=avx512).
//
// Structure mirrors kernels_avx2.cpp at twice the lane width: 16-lane
// __m512 vectors, 32-column C stripes (NV=2), and __mmask16 masked
// loads/stores for every ragged tail — AVX-512 masking replaces the AVX2
// maskload tables outright. The fp32 row tile is 12 rows tall (24 zmm
// accumulators at NV=2), and only this tier carries conv3x3_s1 and its two
// gradients conv3x3_s1_gx / conv3x3_s1_gw, the im2col-free 3x3 convolution.
//
// Determinism rules this file must uphold (simd_kernels.hpp):
//   * GEMM blocks: a C row's reduction order is fixed by (j, k) alone;
//     each row owns its accumulators whether it lands in a 12- or 6-row
//     tile or a 1..5-row remainder, so thread chunking never changes
//     results.
//   * Elementwise kernels are value-pure: tails run the same 16-lane
//     arithmetic under a mask, never a differently-rounded scalar loop.
//   * The quantized entries accumulate in exact int32, so they are bitwise
//     stable under any chunking or tail split by construction.
#include "nn/simd_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace pp::nn::detail {

namespace {

/// Mask with the first r (1..15) lanes enabled.
inline __mmask16 tail_mask16(int r) {
  return static_cast<__mmask16>((1u << r) - 1u);
}

inline float hsum16(__m512 v) { return _mm512_reduce_add_ps(v); }

/// exp(x) per lane: the same Cephes polynomial and Cody-Waite reduction as
/// the AVX2 tier, so both vector tiers agree to the polynomial's ~2e-7
/// relative error (they still differ from scalar std::exp — cross-ISA
/// parity stays tolerance-based).
inline __m512 exp512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  x = _mm512_min_ps(x, _mm512_set1_ps(88.3762626647949f));
  x = _mm512_max_ps(x, _mm512_set1_ps(-88.3762626647949f));
  __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                              _mm512_set1_ps(0.5f));
  fx = _mm512_roundscale_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(0.693359375f)));
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(-2.12194440e-4f)));
  __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, z, x);
  y = _mm512_add_ps(y, one);
  __m512i n = _mm512_cvttps_epi32(fx);
  n = _mm512_add_epi32(n, _mm512_set1_epi32(127));
  n = _mm512_slli_epi32(n, 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(n));
}

// --- GEMM ------------------------------------------------------------------
//
// Same broadcast-A microkernel shape as the AVX2 tier: MR rows x (NV x 16)
// columns of C accumulate in registers across the full depth loop and are
// stored once. MR=12, NV=2 uses 24 accumulators + 2 B vectors + 1
// broadcast out of 32 zmm registers, so one pass covers sd1's Co = 12 and
// two or four passes its 24 and 48.

/// Runs tile(std::integral_constant<int, MR>{}, i) over rows [lo, hi):
/// 12-row tiles, then at most one 6-row tile, then a 1..5-row remainder.
template <typename Tile>
inline void row_tiles(std::size_t lo, std::size_t hi, Tile&& tile) {
  std::size_t i = lo;
  for (; i + 12 <= hi; i += 12) tile(std::integral_constant<int, 12>{}, i);
  if (i + 6 <= hi) {
    tile(std::integral_constant<int, 6>{}, i);
    i += 6;
  }
  switch (hi - i) {
    case 5: tile(std::integral_constant<int, 5>{}, i); break;
    case 4: tile(std::integral_constant<int, 4>{}, i); break;
    case 3: tile(std::integral_constant<int, 3>{}, i); break;
    case 2: tile(std::integral_constant<int, 2>{}, i); break;
    case 1: tile(std::integral_constant<int, 1>{}, i); break;
    default: break;
  }
}

template <int MR, int NV, bool MASKED>
inline void gemm_tile(const float* A, std::size_t ar, std::size_t ak,
                      std::size_t i0, int j0, int K, const float* B, int ldb,
                      float* C, int ldc, bool accumulate, __mmask16 mask) {
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (int k = 0; k < K; ++k) {
    const float* brow = B + static_cast<std::size_t>(k) * ldb + j0;
    __m512 b[NV];
    for (int v = 0; v < NV; ++v)
      b[v] = (MASKED && v == NV - 1)
                 ? _mm512_maskz_loadu_ps(mask, brow + 16 * v)
                 : _mm512_loadu_ps(brow + 16 * v);
    for (int r = 0; r < MR; ++r) {
      __m512 a = _mm512_set1_ps(
          A[(i0 + r) * ar + static_cast<std::size_t>(k) * ak]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(a, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    for (int v = 0; v < NV; ++v) {
      const bool m = MASKED && v == NV - 1;
      __m512 res = acc[r][v];
      if (accumulate) {
        __m512 prev = m ? _mm512_maskz_loadu_ps(mask, crow + 16 * v)
                        : _mm512_loadu_ps(crow + 16 * v);
        res = _mm512_add_ps(prev, res);
      }
      if (m)
        _mm512_mask_storeu_ps(crow + 16 * v, mask, res);
      else
        _mm512_storeu_ps(crow + 16 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void gemm_col_stripe(std::size_t lo, std::size_t hi, int j0, int K,
                            const float* A, std::size_t ar, std::size_t ak,
                            const float* B, int ldb, float* C, int ldc,
                            bool acc, __mmask16 mask) {
  row_tiles(lo, hi, [&](auto mr, std::size_t i) {
    gemm_tile<decltype(mr)::value, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C,
                                               ldc, acc, mask);
  });
}

/// Shared NN/TN driver: column stripes outermost so the K x 32 panel of B
/// stays cache-resident while every row block streams over it.
inline void gemm_broadcast_a(std::size_t lo, std::size_t hi, int N, int K,
                             const float* A, std::size_t ar, std::size_t ak,
                             const float* B, int ldb, float* C, int ldc,
                             bool acc) {
  int j = 0;
  for (; j + 32 <= N; j += 32)
    gemm_col_stripe<2, false>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                              0xFFFF);
  for (; j + 16 <= N; j += 16)
    gemm_col_stripe<1, false>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                              0xFFFF);
  if (j < N)
    gemm_col_stripe<1, true>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                             tail_mask16(N - j));
}

void gemm_nn_avx512(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  gemm_broadcast_a(lo, hi, N, K, A, static_cast<std::size_t>(lda), 1, B, ldb,
                   C, ldc, accumulate);
}

void gemm_tn_avx512(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  gemm_broadcast_a(lo, hi, N, K, A, 1, static_cast<std::size_t>(lda), B, ldb,
                   C, ldc, accumulate);
}

/// NT: C[i][j] = <A row i, B row j>, both contiguous over k — four dot
/// products per pass share one load of the A vector.
template <int NR>
inline void nt_dots(const float* arow, const float* B, int ldb, int j0, int K,
                    float* crow, bool acc) {
  __m512 s[NR];
  for (int r = 0; r < NR; ++r) s[r] = _mm512_setzero_ps();
  int k = 0;
  for (; k + 16 <= K; k += 16) {
    __m512 a = _mm512_loadu_ps(arow + k);
    for (int r = 0; r < NR; ++r)
      s[r] = _mm512_fmadd_ps(
          a, _mm512_loadu_ps(B + static_cast<std::size_t>(j0 + r) * ldb + k),
          s[r]);
  }
  if (k < K) {
    const __mmask16 mask = tail_mask16(K - k);
    __m512 a = _mm512_maskz_loadu_ps(mask, arow + k);
    for (int r = 0; r < NR; ++r)
      s[r] = _mm512_fmadd_ps(
          a,
          _mm512_maskz_loadu_ps(
              mask, B + static_cast<std::size_t>(j0 + r) * ldb + k),
          s[r]);
  }
  for (int r = 0; r < NR; ++r) {
    float v = hsum16(s[r]);
    if (acc)
      crow[j0 + r] += v;
    else
      crow[j0 + r] = v;
  }
}

void gemm_nt_avx512(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  for (std::size_t i = lo; i < hi; ++i) {
    const float* arow = A + i * static_cast<std::size_t>(lda);
    float* crow = C + i * static_cast<std::size_t>(ldc);
    int j = 0;
    for (; j + 4 <= N; j += 4) nt_dots<4>(arow, B, ldb, j, K, crow, accumulate);
    switch (N - j) {
      case 3: nt_dots<3>(arow, B, ldb, j, K, crow, accumulate); break;
      case 2: nt_dots<2>(arow, B, ldb, j, K, crow, accumulate); break;
      case 1: nt_dots<1>(arow, B, ldb, j, K, crow, accumulate); break;
      default: break;
    }
  }
}

// --- Implicit-GEMM 3x3 convolution ----------------------------------------
//
// For a stride-1, pad-1 3x3 conv, im2col row k = (c·3 + ky)·3 + kx is
// channel c's plane shifted by (ky−1)·W + (kx−1), with +0.0f wherever the
// source pixel leaves the plane. conv3x3_s1 reads those rows straight from
// the plane: each 16-lane B vector is one masked unaligned load, and its
// per-(vector, tap) lane mask clears the lanes whose source pixel lies
// outside the plane or whose output lies past H·W. A cleared lane is never
// dereferenced and loads +0.0f, the value im2col writes, and the depth
// loop runs in weight order, so every output gets the FMA chain gemm_nn
// runs over its im2col column: the bits are those of im2col + gemm_nn.

/// (col + n) mod W for col in [0, W), without a division.
inline int advance_col(int col, int n, int W) {
  col += n;
  while (col >= W) col -= W;
  return col;
}

/// conv3x3_tap_masks of the 16·NV outputs at j0.. (col = j0 mod W), one
/// row of nine per 16-lane vector.
template <int NV>
inline void stripe_masks(int j0, int col, int W, int P, __mmask16 (&m)[NV][9]) {
  for (int v = 0; v < NV; ++v, col = advance_col(col, 16, W))
    conv3x3_tap_masks(j0 + 16 * v, col, W, P, m[v]);
}

/// One tap T of channel c: xp points at the tile's first output pixel in
/// that channel, arow[r] at row i0 + r's weights for (c, tap 0).
template <int T, int MR, int NV>
inline void conv3x3_tap(__m512 (&acc)[MR][NV], const float* const (&arow)[MR],
                        const float* xp, std::ptrdiff_t W,
                        const __mmask16 (&m)[NV][9]) {
  const float* src = xp + (T / 3 - 1) * W + (T % 3 - 1);
  __m512 b[NV];
  for (int v = 0; v < NV; ++v)
    b[v] = _mm512_maskz_loadu_ps(m[v][T], src + 16 * v);
  for (int r = 0; r < MR; ++r) {
    const __m512 a = _mm512_set1_ps(arow[r][T]);
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_fmadd_ps(a, b[v], acc[r][v]);
  }
}

template <int MR, int NV, int... T>
inline void conv3x3_taps(__m512 (&acc)[MR][NV], const float* const (&arow)[MR],
                         const float* xp, std::ptrdiff_t W,
                         const __mmask16 (&m)[NV][9],
                         std::integer_sequence<int, T...>) {
  (conv3x3_tap<T>(acc, arow, xp, W, m), ...);
}

template <int MR, int NV>
inline void conv3x3_tile(const float* A, std::size_t i0, int Ci,
                         const float* x, std::size_t plane, int W, int j0,
                         const __mmask16 (&m)[NV][9], float* C) {
  const std::size_t lda = static_cast<std::size_t>(Ci) * 9;
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  const float* arow[MR];
  for (int r = 0; r < MR; ++r) arow[r] = A + (i0 + r) * lda;
  const float* xp = x + j0;
  for (int c = 0; c < Ci; ++c, xp += plane) {
    conv3x3_taps(acc, arow, xp, W, m, std::make_integer_sequence<int, 9>{});
    for (int r = 0; r < MR; ++r) arow[r] += 9;
  }
  // The centre tap's mask is exactly the outputs that exist.
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * plane + j0;
    for (int v = 0; v < NV; ++v)
      _mm512_mask_storeu_ps(crow + 16 * v, m[v][4], acc[r][v]);
  }
}

/// Outputs [j0, j0 + 16·NV) of rows [lo, hi); col = j0 mod W.
template <int NV>
inline void conv3x3_stripe(std::size_t lo, std::size_t hi, int Ci, int H,
                           int W, const float* A, const float* x, float* C,
                           int j0, int col) {
  const int P = H * W;
  __mmask16 m[NV][9];
  stripe_masks(j0, col, W, P, m);
  row_tiles(lo, hi, [&](auto mr, std::size_t i) {
    conv3x3_tile<decltype(mr)::value, NV>(A, i, Ci, x,
                                          static_cast<std::size_t>(P), W, j0,
                                          m, C);
  });
}

void conv3x3_s1_avx512(std::size_t lo, std::size_t hi, int Ci, int H, int W,
                       const float* A, const float* x, float* C) {
  const int P = H * W;
  int j = 0, col = 0;
  for (; j + 16 < P; j += 32, col = advance_col(col, 32, W))
    conv3x3_stripe<2>(lo, hi, Ci, H, W, A, x, C, j, col);
  if (j < P) conv3x3_stripe<1>(lo, hi, Ci, H, W, A, x, C, j, col);
}

// --- Implicit-GEMM 3x3 convolution gradients -------------------------------
//
// Input gradient. gemm_tn writes col row (c, T) at output q as the
// co-sequential FMA chain of w[co][c·9+T]·g[co][q], and col2im_add adds
// it, tap after tap in weight order, into gx at q − (ky−1)·W − (kx−1)
// wherever output q exists. Seen from gx pixel p, tap T's output is
// q = p + (1−ky)·W + (1−kx), and it exists exactly where the forward mask
// of tap 8−T is set at p. So conv3x3_s1_gx runs, per tap, gemm_tn's chain
// from +0.0f over g loaded at that offset under that mask, and adds the
// chain into gx under the same mask: a cleared lane keeps its gx value,
// just as col2im_add skips it.
//
// Weight gradient. gemm_nt computes gw[co][c·9+T] as an FMA chain of
// g[co] against col row (c, T) over 16-pixel blocks, masking both at the
// ragged tail, then one _mm512_reduce_add_ps and one +=. conv3x3_s1_gw
// runs that chain with the col block read straight from the plane under
// the block's tap-T mask, which yields the +0.0f im2col writes.

/// Tap T of input channels [c0, c0 + MR) at gx pixels j0..: gemm_tn's
/// chain over co into acc. wc points at row co = 0, column c0·9 of A; g
/// at pixel j0 of output channel 0.
template <int T, int MR, int NV>
inline void conv3x3_gx_chain(__m512 (&acc)[MR][NV], const float* wc,
                             std::size_t lda, int Co, const float* g,
                             std::size_t plane, std::ptrdiff_t W,
                             const __mmask16 (&m)[NV][9]) {
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  const float* gp = g + (1 - T / 3) * W + (1 - T % 3);
  for (int co = 0; co < Co; ++co, gp += plane, wc += lda) {
    __m512 b[NV];
    for (int v = 0; v < NV; ++v)
      b[v] = _mm512_maskz_loadu_ps(m[v][8 - T], gp + 16 * v);
    for (int r = 0; r < MR; ++r) {
      const __m512 a = _mm512_set1_ps(wc[r * 9 + T]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(a, b[v], acc[r][v]);
    }
  }
}

/// A 12-row tile reads, adds and writes gx once per tap; smaller tiles
/// keep gx in registers (MR·NV more zmm) and store it once.
template <int MR, int NV, int... T>
inline void conv3x3_gx_tile(const float* A, std::size_t c0, int Co, int Ci,
                            const float* g, std::size_t plane, int W, int j0,
                            const __mmask16 (&m)[NV][9], float* gx,
                            std::integer_sequence<int, T...>) {
  constexpr bool kInRegs = MR <= 6;
  const std::size_t lda = static_cast<std::size_t>(Ci) * 9;
  const float* wc = A + c0 * 9;
  float* out = gx + c0 * plane + j0;
  __m512 acc[MR][NV], sum[MR][NV];
  if constexpr (kInRegs)
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v)
        sum[r][v] = _mm512_maskz_loadu_ps(m[v][4], out + r * plane + 16 * v);
  auto tap = [&](auto t) {
    constexpr int kT = decltype(t)::value;
    conv3x3_gx_chain<kT>(acc, wc, lda, Co, g + j0, plane, W, m);
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v) {
        const __mmask16 k = m[v][8 - kT];
        if constexpr (kInRegs) {
          sum[r][v] = _mm512_mask_add_ps(sum[r][v], k, sum[r][v], acc[r][v]);
        } else {
          float* p = out + r * plane + 16 * v;
          _mm512_mask_storeu_ps(
              p, k, _mm512_add_ps(_mm512_maskz_loadu_ps(k, p), acc[r][v]));
        }
      }
  };
  (tap(std::integral_constant<int, T>{}), ...);
  if constexpr (kInRegs)
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < NV; ++v)
        _mm512_mask_storeu_ps(out + r * plane + 16 * v, m[v][4], sum[r][v]);
}

void conv3x3_s1_gx_avx512(std::size_t lo, std::size_t hi, int Co, int Ci,
                          int H, int W, const float* A, const float* g,
                          float* gx) {
  const int P = H * W;
  const std::size_t plane = static_cast<std::size_t>(P);
  auto stripe = [&](auto nv, int j0, int col) {
    constexpr int NV = decltype(nv)::value;
    __mmask16 m[NV][9];
    stripe_masks(j0, col, W, P, m);
    row_tiles(lo, hi, [&](auto mr, std::size_t i) {
      conv3x3_gx_tile<decltype(mr)::value, NV>(
          A, i, Co, Ci, g, plane, W, j0, m, gx,
          std::make_integer_sequence<int, 9>{});
    });
  };
  int j = 0, col = 0;
  for (; j + 16 < P; j += 32, col = advance_col(col, 32, W))
    stripe(std::integral_constant<int, 2>{}, j, col);
  if (j < P) stripe(std::integral_constant<int, 1>{}, j, col);
}

/// One 16-pixel block of every tap of one input channel: a[r] is output
/// row r's gradient at the block, xp the channel's plane at the block,
/// mb the block's nine tap masks.
template <int MR, int... T>
inline void conv3x3_gw_block(__m512 (&acc)[MR][9], const __m512 (&a)[MR],
                             const float* xp, std::ptrdiff_t W,
                             const std::uint16_t* mb,
                             std::integer_sequence<int, T...>) {
  auto tap = [&](auto t) {
    constexpr int kT = decltype(t)::value;
    const __m512 b =
        _mm512_maskz_loadu_ps(mb[kT], xp + (kT / 3 - 1) * W + (kT % 3 - 1));
    for (int r = 0; r < MR; ++r)
      acc[r][kT] = _mm512_fmadd_ps(a[r], b, acc[r][kT]);
  };
  (tap(std::integral_constant<int, T>{}), ...);
}

/// Output channels [co0, co0 + MR), one input channel at a time: MR × 9
/// dot accumulators (27 zmm at MR = 3) over the plane's blocks.
template <int MR>
inline void conv3x3_gw_tile(std::size_t co0, int Ci, int H, int W,
                            const float* g, const float* x,
                            const std::uint16_t* masks, float* gw) {
  const int P = H * W;
  const std::size_t plane = static_cast<std::size_t>(P);
  const std::size_t lda = static_cast<std::size_t>(Ci) * 9;
  const int full = P / 16;
  const float* grow[MR];
  for (int r = 0; r < MR; ++r) grow[r] = g + (co0 + r) * plane;
  const float* xp = x;
  for (int c = 0; c < Ci; ++c, xp += plane) {
    __m512 acc[MR][9];
    for (int r = 0; r < MR; ++r)
      for (int t = 0; t < 9; ++t) acc[r][t] = _mm512_setzero_ps();
    __m512 a[MR];
    for (int b = 0; b < full; ++b) {
      for (int r = 0; r < MR; ++r) a[r] = _mm512_loadu_ps(grow[r] + 16 * b);
      conv3x3_gw_block(acc, a, xp + 16 * b, W, masks + 9 * b,
                       std::make_integer_sequence<int, 9>{});
    }
    if (16 * full < P) {
      const __mmask16 tail = tail_mask16(P - 16 * full);
      for (int r = 0; r < MR; ++r)
        a[r] = _mm512_maskz_loadu_ps(tail, grow[r] + 16 * full);
      conv3x3_gw_block(acc, a, xp + 16 * full, W, masks + 9 * full,
                       std::make_integer_sequence<int, 9>{});
    }
    for (int r = 0; r < MR; ++r) {
      float* out = gw + (co0 + r) * lda + static_cast<std::size_t>(c) * 9;
      for (int t = 0; t < 9; ++t) out[t] += hsum16(acc[r][t]);
    }
  }
}

void conv3x3_s1_gw_avx512(std::size_t lo, std::size_t hi, int Ci, int H,
                          int W, const float* g, const float* x,
                          const std::uint16_t* masks, float* gw) {
  std::size_t i = lo;
  for (; i + 3 <= hi; i += 3) conv3x3_gw_tile<3>(i, Ci, H, W, g, x, masks, gw);
  if (hi - i == 2)
    conv3x3_gw_tile<2>(i, Ci, H, W, g, x, masks, gw);
  else if (hi - i == 1)
    conv3x3_gw_tile<1>(i, Ci, H, W, g, x, masks, gw);
}

// --- Elementwise -----------------------------------------------------------
//
// Each kernel runs the identical 16-lane arithmetic over full groups and a
// masked tail (maskz load zero-fills dead lanes; mask store leaves them
// untouched in memory).

void silu_avx512(const float* x, float* y, std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_loadu_ps(x + i);
    __m512 den = _mm512_add_ps(one, exp512(_mm512_sub_ps(zero, v)));
    _mm512_storeu_ps(y + i, _mm512_div_ps(v, den));
  }
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    __m512 v = _mm512_maskz_loadu_ps(mask, x + i);
    __m512 den = _mm512_add_ps(one, exp512(_mm512_sub_ps(zero, v)));
    _mm512_mask_storeu_ps(y + i, mask, _mm512_div_ps(v, den));
  }
}

void relu_avx512(const float* x, float* y, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(y + i, _mm512_max_ps(_mm512_loadu_ps(x + i), zero));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(
        y + i, mask, _mm512_max_ps(_mm512_maskz_loadu_ps(mask, x + i), zero));
  }
}

void add_avx512(float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(a + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                          _mm512_loadu_ps(b + i)));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(a + i, mask,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                        _mm512_maskz_loadu_ps(mask, b + i)));
  }
}

void mul_avx512(const float* a, const float* b, float* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(o + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                          _mm512_loadu_ps(b + i)));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(o + i, mask,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                        _mm512_maskz_loadu_ps(mask, b + i)));
  }
}

void scale_avx512(float* a, float s, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(a + i, _mm512_mul_ps(_mm512_loadu_ps(a + i), vs));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(
        a + i, mask, _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, a + i), vs));
  }
}

void add_const_avx512(float* a, float c, std::size_t n) {
  const __m512 vc = _mm512_set1_ps(c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(a + i, _mm512_add_ps(_mm512_loadu_ps(a + i), vc));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(
        a + i, mask, _mm512_add_ps(_mm512_maskz_loadu_ps(mask, a + i), vc));
  }
}

void axpy_avx512(float* a, const float* b, float s, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(s);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(a + i, _mm512_fmadd_ps(vs, _mm512_loadu_ps(b + i),
                                            _mm512_loadu_ps(a + i)));
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    _mm512_mask_storeu_ps(
        a + i, mask,
        _mm512_fmadd_ps(vs, _mm512_maskz_loadu_ps(mask, b + i),
                        _mm512_maskz_loadu_ps(mask, a + i)));
  }
}

// --- GroupNorm passes ------------------------------------------------------

void reduce_sum_sumsq_avx512(const float* x, std::size_t n, double* sum,
                             double* sumsq) {
  __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
  __m512d q0 = _mm512_setzero_pd(), q1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_loadu_ps(x + i);
    __m512d lo = _mm512_cvtps_pd(_mm512_castps512_ps256(v));
    __m512d hi = _mm512_cvtps_pd(_mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
    s0 = _mm512_add_pd(s0, lo);
    s1 = _mm512_add_pd(s1, hi);
    q0 = _mm512_fmadd_pd(lo, lo, q0);
    q1 = _mm512_fmadd_pd(hi, hi, q1);
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
  double q = _mm512_reduce_add_pd(_mm512_add_pd(q0, q1));
  for (; i < n; ++i) {
    s += x[i];
    q += static_cast<double>(x[i]) * x[i];
  }
  *sum = s;
  *sumsq = q;
}

void normalize_affine_avx512(const float* x, float* y, std::size_t n, float mu,
                             float istd, float g, float b) {
  const __m512 vmu = _mm512_set1_ps(mu);
  const __m512 vistd = _mm512_set1_ps(istd);
  const __m512 vg = _mm512_set1_ps(g);
  const __m512 vb = _mm512_set1_ps(b);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 xhat =
        _mm512_mul_ps(_mm512_sub_ps(_mm512_loadu_ps(x + i), vmu), vistd);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(vg, xhat, vb));
  }
  if (i < n) {
    const __mmask16 mask = tail_mask16(static_cast<int>(n - i));
    __m512 xhat = _mm512_mul_ps(
        _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, x + i), vmu), vistd);
    _mm512_mask_storeu_ps(y + i, mask, _mm512_fmadd_ps(vg, xhat, vb));
  }
}

// --- Quantized tier --------------------------------------------------------
//
// B arrives packed into 16-column panels (see pack_i8_b in nn/gemm.hpp):
// each panel row is one 64-byte line — exactly one zmm — holding depth
// pair {2kp, 2kp+1} interleaved per column, rows sequential over kp. The
// kernel takes the exact shape of the fp32 broadcast kernel above —
// broadcast one A depth pair, madd against two panel rows (32 columns),
// accumulate int32 straight down C columns. No horizontal reductions
// anywhere, B loads stream each panel strictly sequentially (no large-N
// stride pathologies), padding columns are packed zeros so loads are
// always full-width (only C stores mask), and every K (even the 3x3
// stem's K=27) stays fully vectorized. madd lanes are <= 2*127^2, so an
// int32 lane absorbs K <= ~66000 exactly; the single int32->float
// rounding per output is IEEE-deterministic, so bitwise parity with the
// scalar kernel holds.
//
// On CPUs with AVX512-VNNI the madd+add pair fuses into one vpdpwssd
// (runtime dispatch at the bottom). The integer sums are identical either
// way, so which path ran never shows up in results.

/// Broadcast of A row's depth pair {2kp, 2kp+1} as one int32. The odd
/// final depth broadcasts {A[K-1], 0} without reading past the row; the
/// packed B partner slot is zero-filled, so the dead half multiplies zero
/// by zero.
inline __m512i a_pair512(const std::int16_t* arow, int kp, bool odd_tail) {
  if (odd_tail)
    return _mm512_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint16_t>(arow[2 * kp])));
  std::int32_t pair;
  std::memcpy(&pair, arow + 2 * kp, sizeof(pair));
  return _mm512_set1_epi32(pair);
}

template <int MR, int NV, bool MASKED>
inline void i8_tile(const std::int16_t* A, int lda, std::size_t i0, int j0,
                    int K, const std::int16_t* Bp, float* C, int ldc,
                    const float* dq_row, const float* dq_col, float dq_scale,
                    __mmask16 mask) {
  __m512i acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_si512();
  const int kp_n = (K + 1) / 2;
  const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
  const std::int16_t* pb[NV];
  for (int v = 0; v < NV; ++v)
    pb[v] = Bp + (static_cast<std::size_t>(j0) / 16 + v) * pstride;
  for (int kp = 0; kp < kp_n; ++kp) {
    __m512i b[NV];
    for (int v = 0; v < NV; ++v) {
      b[v] = _mm512_loadu_si512(reinterpret_cast<const void*>(pb[v]));
      pb[v] += 32;
    }
    for (int r = 0; r < MR; ++r) {
      const __m512i a = a_pair512(A + (i0 + r) * static_cast<std::size_t>(lda),
                                  kp, (K & 1) && kp == kp_n - 1);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_add_epi32(acc[r][v], _mm512_madd_epi16(a, b[v]));
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    const __m512 rs =
        _mm512_set1_ps(dq_row ? dq_row[i0 + r] * dq_scale : 1.0f);
    for (int v = 0; v < NV; ++v) {
      __m512 res = _mm512_cvtepi32_ps(acc[r][v]);
      if (dq_row) res = _mm512_mul_ps(res, rs);
      if (dq_col) {
        const __m512 cs = (MASKED && v == NV - 1)
                              ? _mm512_maskz_loadu_ps(mask, dq_col + j0 + 16 * v)
                              : _mm512_loadu_ps(dq_col + j0 + 16 * v);
        res = _mm512_mul_ps(res, cs);
      }
      if (MASKED && v == NV - 1)
        _mm512_mask_storeu_ps(crow + 16 * v, mask, res);
      else
        _mm512_storeu_ps(crow + 16 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void i8_col_stripe(std::size_t lo, std::size_t hi, int j0, int K,
                          const std::int16_t* A, int lda,
                          const std::int16_t* Bp, float* C, int ldc,
                          const float* dq_row, const float* dq_col,
                          float dq_scale, __mmask16 mask) {
  std::size_t i = lo;
  for (; i + 6 <= hi; i += 6)
    i8_tile<6, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row, dq_col,
                           dq_scale, mask);
  switch (hi - i) {
    case 5: i8_tile<5, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                   dq_col, dq_scale, mask); break;
    case 4: i8_tile<4, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                   dq_col, dq_scale, mask); break;
    case 3: i8_tile<3, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                   dq_col, dq_scale, mask); break;
    case 2: i8_tile<2, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                   dq_col, dq_scale, mask); break;
    case 1: i8_tile<1, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                   dq_col, dq_scale, mask); break;
    default: break;
  }
}

void gemm_i8_madd_avx512(std::size_t lo, std::size_t hi, int N, int K,
                         const std::int16_t* A, int lda,
                         const std::int16_t* Bp, float* C, int ldc,
                         const float* dq_row, const float* dq_col,
                         float dq_scale) {
  int j = 0;
  for (; j + 32 <= N; j += 32)
    i8_col_stripe<2, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                            dq_scale, 0xFFFF);
  const int rem = N - j;
  if (rem > 16)
    i8_col_stripe<2, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                           dq_scale, tail_mask16(rem - 16));
  else if (rem == 16)
    i8_col_stripe<1, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                            dq_scale, 0xFFFF);
  else if (rem > 0)
    i8_col_stripe<1, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                           dq_scale, tail_mask16(rem));
}

// The same kernel with madd+add fused into vpdpwssd. Lives in its own
// #pragma target region — and duplicates rather than shares the template —
// so the compiler cannot peephole VNNI encodings into the plain AVX-512
// fallback above, which must run on non-VNNI hosts.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512vnni")

template <int MR, int NV, bool MASKED>
inline void i8_tile_vnni(const std::int16_t* A, int lda, std::size_t i0,
                         int j0, int K, const std::int16_t* Bp,
                         float* C, int ldc, const float* dq_row,
                         const float* dq_col, float dq_scale,
                         __mmask16 mask) {
  __m512i acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_si512();
  const int kp_n = (K + 1) / 2;
  const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
  const std::int16_t* pb[NV];
  for (int v = 0; v < NV; ++v)
    pb[v] = Bp + (static_cast<std::size_t>(j0) / 16 + v) * pstride;
  for (int kp = 0; kp < kp_n; ++kp) {
    __m512i b[NV];
    for (int v = 0; v < NV; ++v) {
      b[v] = _mm512_loadu_si512(reinterpret_cast<const void*>(pb[v]));
      pb[v] += 32;
    }
    for (int r = 0; r < MR; ++r) {
      const __m512i a = a_pair512(A + (i0 + r) * static_cast<std::size_t>(lda),
                                  kp, (K & 1) && kp == kp_n - 1);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_dpwssd_epi32(acc[r][v], a, b[v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    const __m512 rs =
        _mm512_set1_ps(dq_row ? dq_row[i0 + r] * dq_scale : 1.0f);
    for (int v = 0; v < NV; ++v) {
      __m512 res = _mm512_cvtepi32_ps(acc[r][v]);
      if (dq_row) res = _mm512_mul_ps(res, rs);
      if (dq_col) {
        const __m512 cs = (MASKED && v == NV - 1)
                              ? _mm512_maskz_loadu_ps(mask, dq_col + j0 + 16 * v)
                              : _mm512_loadu_ps(dq_col + j0 + 16 * v);
        res = _mm512_mul_ps(res, cs);
      }
      if (MASKED && v == NV - 1)
        _mm512_mask_storeu_ps(crow + 16 * v, mask, res);
      else
        _mm512_storeu_ps(crow + 16 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void i8_col_stripe_vnni(std::size_t lo, std::size_t hi, int j0,
                               int K, const std::int16_t* A, int lda,
                               const std::int16_t* Bp, float* C, int ldc,
                               const float* dq_row, const float* dq_col,
                               float dq_scale, __mmask16 mask) {
  std::size_t i = lo;
  for (; i + 6 <= hi; i += 6)
    i8_tile_vnni<6, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row, dq_col,
                                dq_scale, mask);
  switch (hi - i) {
    case 5: i8_tile_vnni<5, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                        dq_col, dq_scale, mask); break;
    case 4: i8_tile_vnni<4, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                        dq_col, dq_scale, mask); break;
    case 3: i8_tile_vnni<3, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                        dq_col, dq_scale, mask); break;
    case 2: i8_tile_vnni<2, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                        dq_col, dq_scale, mask); break;
    case 1: i8_tile_vnni<1, NV, MASKED>(A, lda, i, j0, K, Bp, C, ldc, dq_row,
                                        dq_col, dq_scale, mask); break;
    default: break;
  }
}

void gemm_i8_vnni_avx512(std::size_t lo, std::size_t hi, int N, int K,
                         const std::int16_t* A, int lda,
                         const std::int16_t* Bp, float* C, int ldc,
                         const float* dq_row, const float* dq_col,
                         float dq_scale) {
  int j = 0;
  for (; j + 32 <= N; j += 32)
    i8_col_stripe_vnni<2, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                 dq_col, dq_scale, 0xFFFF);
  const int rem = N - j;
  if (rem > 16)
    i8_col_stripe_vnni<2, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                dq_col, dq_scale, tail_mask16(rem - 16));
  else if (rem == 16)
    i8_col_stripe_vnni<1, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                 dq_col, dq_scale, 0xFFFF);
  else if (rem > 0)
    i8_col_stripe_vnni<1, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                dq_col, dq_scale, tail_mask16(rem));
}

#pragma GCC pop_options

void gemm_i8_nt_avx512(std::size_t lo, std::size_t hi, int N, int K,
                       const std::int16_t* A, int lda, const std::int16_t* Bp,
                       float* C, int ldc, const float* dq_row,
                       const float* dq_col, float dq_scale) {
  static const bool has_vnni = __builtin_cpu_supports("avx512vnni");
  if (has_vnni)
    gemm_i8_vnni_avx512(lo, hi, N, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                        dq_scale);
  else
    gemm_i8_madd_avx512(lo, hi, N, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                        dq_scale);
}

void quantize_s8_avx512(const float* x, float inv_scale, std::int16_t* q,
                        std::size_t n) {
  const __m512 vs = _mm512_set1_ps(inv_scale);
  const __m512i vmax = _mm512_set1_epi32(127);
  const __m512i vmin = _mm512_set1_epi32(-127);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // cvtps_epi32 rounds to nearest-even, matching the scalar lrintf tail.
    __m512i v = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(x + i), vs));
    v = _mm512_min_epi32(vmax, _mm512_max_epi32(vmin, v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                        _mm512_cvtepi32_epi16(v));
  }
  for (; i < n; ++i) {
    long v = std::lrintf(x[i] * inv_scale);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<std::int16_t>(v);
  }
}

void widen_bf16_avx512(const std::uint16_t* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m512i wide = _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16);
    _mm512_storeu_ps(out + i, _mm512_castsi512_ps(wide));
  }
  for (; i < n; ++i) {
    const std::uint32_t u = static_cast<std::uint32_t>(x[i]) << 16;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    out[i] = f;
  }
}

}  // namespace

const KernelTable* avx512_kernels() {
  static const KernelTable table = {
      gemm_nn_avx512,    gemm_nt_avx512, gemm_tn_avx512,
      silu_avx512,       relu_avx512,
      add_avx512,        mul_avx512,     scale_avx512,
      add_const_avx512,  axpy_avx512,
      reduce_sum_sumsq_avx512, normalize_affine_avx512,
      gemm_i8_nt_avx512, quantize_s8_avx512, widen_bf16_avx512,
      conv3x3_s1_avx512, conv3x3_s1_gx_avx512, conv3x3_s1_gw_avx512,
  };
  return &table;
}

}  // namespace pp::nn::detail

#else  // build without AVX-512 support: dispatch falls back to avx2/scalar

namespace pp::nn::detail {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace pp::nn::detail

#endif
