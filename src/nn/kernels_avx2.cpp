// AVX2+FMA kernel set. This is the only translation unit compiled with
// -mavx2 -mfma (per-file options in src/nn/CMakeLists.txt), so the binary
// stays runnable on pre-AVX2 hosts: nothing here executes unless the
// runtime dispatch in simd.cpp selects it after a cpuid probe.
//
// Determinism rules this file must uphold (simd_kernels.hpp):
//   * GEMM blocks: a C row's reduction order is fixed by (j, k) alone.
//     Rows are register-blocked 6 at a time, but each row owns its own
//     accumulators and sees the identical k-sequential FMA chain whether it
//     lands in the 6-row kernel or a 1..5-row remainder — so thread-chunk
//     boundaries never change results.
//   * Elementwise kernels are value-pure: tails go through masked
//     loads/stores of the same 8-lane arithmetic, never a differently-
//     rounded scalar loop, so element i's value is independent of buffer
//     offset or length. Fused epilogues rely on this for bit-equality with
//     separate full-tensor passes.
#include "nn/simd_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace pp::nn::detail {

namespace {

alignas(32) constexpr int kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};

/// Mask with the first r (1..7) lanes enabled.
inline __m256i tail_mask(int r) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - r));
}

inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x1);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

inline double hsum4d(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  __m128d sh = _mm_unpackhi_pd(lo, lo);
  lo = _mm_add_sd(lo, sh);
  return _mm_cvtsd_f64(lo);
}

/// exp(x) per lane, Cephes polynomial over [-0.5 ln 2, 0.5 ln 2] with
/// Cody-Waite range reduction. Max relative error ~2e-7; inputs are
/// clamped so extreme arguments saturate instead of producing inf/NaN.
inline __m256 exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693359375f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.12194440e-4f)));
  __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(127));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// --- GEMM ------------------------------------------------------------------
//
// One register-blocked microkernel serves both the NN and TN variants: the
// A element feeding row r at depth k sits at A[(i0+r)*ar + k*ak], which is
// (lda, 1) for NN ({M,K} row-major) and (1, lda) for TN ({K,M} row-major).
// MR rows x (NV x 8) columns of C accumulate in registers across the full
// depth loop and are stored exactly once — the memory traffic the scalar
// kernels pay per KC block disappears entirely.

template <int MR, int NV, bool MASKED>
inline void gemm_tile(const float* A, std::size_t ar, std::size_t ak,
                      std::size_t i0, int j0, int K, const float* B, int ldb,
                      float* C, int ldc, bool accumulate, __m256i mask) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  for (int k = 0; k < K; ++k) {
    const float* brow = B + static_cast<std::size_t>(k) * ldb + j0;
    __m256 b[NV];
    for (int v = 0; v < NV; ++v)
      b[v] = (MASKED && v == NV - 1) ? _mm256_maskload_ps(brow + 8 * v, mask)
                                     : _mm256_loadu_ps(brow + 8 * v);
    for (int r = 0; r < MR; ++r) {
      __m256 a = _mm256_broadcast_ss(A + (i0 + r) * ar +
                                     static_cast<std::size_t>(k) * ak);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(a, b[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    for (int v = 0; v < NV; ++v) {
      const bool m = MASKED && v == NV - 1;
      __m256 res = acc[r][v];
      if (accumulate) {
        __m256 prev = m ? _mm256_maskload_ps(crow + 8 * v, mask)
                        : _mm256_loadu_ps(crow + 8 * v);
        res = _mm256_add_ps(prev, res);
      }
      if (m)
        _mm256_maskstore_ps(crow + 8 * v, mask, res);
      else
        _mm256_storeu_ps(crow + 8 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void gemm_col_stripe(std::size_t lo, std::size_t hi, int j0, int K,
                            const float* A, std::size_t ar, std::size_t ak,
                            const float* B, int ldb, float* C, int ldc,
                            bool acc, __m256i mask) {
  std::size_t i = lo;
  for (; i + 6 <= hi; i += 6)
    gemm_tile<6, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
  switch (hi - i) {
    case 5:
      gemm_tile<5, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
      break;
    case 4:
      gemm_tile<4, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
      break;
    case 3:
      gemm_tile<3, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
      break;
    case 2:
      gemm_tile<2, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
      break;
    case 1:
      gemm_tile<1, NV, MASKED>(A, ar, ak, i, j0, K, B, ldb, C, ldc, acc, mask);
      break;
    default:
      break;
  }
}

/// Shared NN/TN driver: column stripes outermost so the K x 16 panel of B
/// stays cache-resident while every row block streams over it.
inline void gemm_broadcast_a(std::size_t lo, std::size_t hi, int N, int K,
                             const float* A, std::size_t ar, std::size_t ak,
                             const float* B, int ldb, float* C, int ldc,
                             bool acc) {
  const __m256i none = _mm256_setzero_si256();
  int j = 0;
  for (; j + 16 <= N; j += 16)
    gemm_col_stripe<2, false>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                              none);
  for (; j + 8 <= N; j += 8)
    gemm_col_stripe<1, false>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                              none);
  if (j < N)
    gemm_col_stripe<1, true>(lo, hi, j, K, A, ar, ak, B, ldb, C, ldc, acc,
                             tail_mask(N - j));
}

void gemm_nn_avx2(std::size_t lo, std::size_t hi, int N, int K, const float* A,
                  int lda, const float* B, int ldb, float* C, int ldc,
                  bool accumulate) {
  gemm_broadcast_a(lo, hi, N, K, A, static_cast<std::size_t>(lda), 1, B, ldb,
                   C, ldc, accumulate);
}

void gemm_tn_avx2(std::size_t lo, std::size_t hi, int N, int K, const float* A,
                  int lda, const float* B, int ldb, float* C, int ldc,
                  bool accumulate) {
  gemm_broadcast_a(lo, hi, N, K, A, 1, static_cast<std::size_t>(lda), B, ldb,
                   C, ldc, accumulate);
}

/// NT: C[i][j] = <A row i, B row j>, both contiguous over k — four dot
/// products per pass share one load of the A vector.
template <int NR>
inline void nt_dots(const float* arow, const float* B, int ldb, int j0, int K,
                    float* crow, bool acc) {
  __m256 s[NR];
  for (int r = 0; r < NR; ++r) s[r] = _mm256_setzero_ps();
  int k = 0;
  for (; k + 8 <= K; k += 8) {
    __m256 a = _mm256_loadu_ps(arow + k);
    for (int r = 0; r < NR; ++r)
      s[r] = _mm256_fmadd_ps(
          a, _mm256_loadu_ps(B + static_cast<std::size_t>(j0 + r) * ldb + k),
          s[r]);
  }
  if (k < K) {
    const __m256i mask = tail_mask(K - k);
    __m256 a = _mm256_maskload_ps(arow + k, mask);
    for (int r = 0; r < NR; ++r)
      s[r] = _mm256_fmadd_ps(
          a,
          _mm256_maskload_ps(B + static_cast<std::size_t>(j0 + r) * ldb + k,
                             mask),
          s[r]);
  }
  for (int r = 0; r < NR; ++r) {
    float v = hsum8(s[r]);
    if (acc)
      crow[j0 + r] += v;
    else
      crow[j0 + r] = v;
  }
}

void gemm_nt_avx2(std::size_t lo, std::size_t hi, int N, int K, const float* A,
                  int lda, const float* B, int ldb, float* C, int ldc,
                  bool accumulate) {
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

// --- Elementwise -----------------------------------------------------------
//
// Each kernel runs the identical 8-lane arithmetic over full groups and a
// masked tail; LOAD/STORE pairs keep the body shared between the two.

void silu_avx2(const float* x, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256 den = _mm256_add_ps(one, exp256(_mm256_sub_ps(zero, v)));
    _mm256_storeu_ps(y + i, _mm256_div_ps(v, den));
  }
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    __m256 v = _mm256_maskload_ps(x + i, mask);
    __m256 den = _mm256_add_ps(one, exp256(_mm256_sub_ps(zero, v)));
    _mm256_maskstore_ps(y + i, mask, _mm256_div_ps(v, den));
  }
}

void relu_avx2(const float* x, float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(y + i, mask,
                        _mm256_max_ps(_mm256_maskload_ps(x + i, mask), zero));
  }
}

void add_avx2(float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(a + i, mask,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, mask),
                                      _mm256_maskload_ps(b + i, mask)));
  }
}

void mul_avx2(const float* a, const float* b, float* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(o + i, mask,
                        _mm256_mul_ps(_mm256_maskload_ps(a + i, mask),
                                      _mm256_maskload_ps(b + i, mask)));
  }
}

void scale_avx2(float* a, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(a + i, mask,
                        _mm256_mul_ps(_mm256_maskload_ps(a + i, mask), vs));
  }
}

void add_const_avx2(float* a, float c, std::size_t n) {
  const __m256 vc = _mm256_set1_ps(c);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vc));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(a + i, mask,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, mask), vc));
  }
}

void axpy_avx2(float* a, const float* b, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_fmadd_ps(vs, _mm256_loadu_ps(b + i),
                                            _mm256_loadu_ps(a + i)));
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(a + i, mask,
                        _mm256_fmadd_ps(vs, _mm256_maskload_ps(b + i, mask),
                                        _mm256_maskload_ps(a + i, mask)));
  }
}

// --- GroupNorm passes ------------------------------------------------------

void reduce_sum_sumsq_avx2(const float* x, std::size_t n, double* sum,
                           double* sumsq) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    s0 = _mm256_add_pd(s0, lo);
    s1 = _mm256_add_pd(s1, hi);
    q0 = _mm256_fmadd_pd(lo, lo, q0);
    q1 = _mm256_fmadd_pd(hi, hi, q1);
  }
  double s = hsum4d(_mm256_add_pd(s0, s1));
  double q = hsum4d(_mm256_add_pd(q0, q1));
  for (; i < n; ++i) {
    s += x[i];
    q += static_cast<double>(x[i]) * x[i];
  }
  *sum = s;
  *sumsq = q;
}

void normalize_affine_avx2(const float* x, float* y, std::size_t n, float mu,
                           float istd, float g, float b) {
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vistd = _mm256_set1_ps(istd);
  const __m256 vg = _mm256_set1_ps(g);
  const __m256 vb = _mm256_set1_ps(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmu), vistd);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(vg, xhat, vb));
  }
  if (i < n) {
    const __m256i mask = tail_mask(static_cast<int>(n - i));
    __m256 xhat = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_maskload_ps(x + i, mask), vmu), vistd);
    _mm256_maskstore_ps(y + i, mask, _mm256_fmadd_ps(vg, xhat, vb));
  }
}

// --- Quantized tier --------------------------------------------------------
//
// B arrives packed into 16-column panels (see pack_i8_b in nn/gemm.hpp):
// each panel row is one 64-byte line — two ymm loads — holding depth pair
// {2kp, 2kp+1} interleaved per column, rows sequential over kp. The kernel
// takes the exact shape of the fp32 broadcast kernel above — broadcast one
// A depth pair, madd against one panel row (16 columns), accumulate int32
// straight down C columns. No horizontal reductions anywhere, B loads
// stream each panel strictly sequentially (no large-N stride pathologies),
// padding columns are packed zeros so loads are always full-width (only C
// stores mask), and every K (even the 3x3 stem's K=27) stays fully
// vectorized. madd lanes are <= 2*127^2, so an int32 lane absorbs
// K <= ~66000 exactly; the single int32->float rounding per output is
// IEEE-deterministic, so bitwise parity with the scalar kernel holds.
//
// On CPUs with AVX-VNNI the madd+add pair fuses into one vpdpwssd
// (runtime dispatch at the bottom); the integer sums are identical either
// way.

/// Broadcast of A row's depth pair {2kp, 2kp+1} as one int32. The odd
/// final depth broadcasts {A[K-1], 0} without reading past the row; the
/// packed B partner slot is zero-filled, so the dead half multiplies zero
/// by zero.
inline __m256i a_pair256(const std::int16_t* arow, int kp, bool odd_tail) {
  if (odd_tail)
    return _mm256_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint16_t>(arow[2 * kp])));
  std::int32_t pair;
  std::memcpy(&pair, arow + 2 * kp, sizeof(pair));
  return _mm256_set1_epi32(pair);
}

template <int MR, int NV, bool MASKED>
inline void i8_tile(const std::int16_t* A, int lda, std::size_t i0, int j0,
                    int K, const std::int16_t* Bp, float* C, int ldc,
                    const float* dq_row, const float* dq_col, float dq_scale,
                    __m256i mask) {
  __m256i acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_si256();
  const int kp_n = (K + 1) / 2;
  const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
  const std::int16_t* pb =
      Bp + (static_cast<std::size_t>(j0) / 16) * pstride;
  for (int kp = 0; kp < kp_n; ++kp, pb += 32) {
    __m256i b[NV];
    for (int v = 0; v < NV; ++v)
      b[v] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(pb + 16 * v));
    for (int r = 0; r < MR; ++r) {
      const __m256i a = a_pair256(A + (i0 + r) * static_cast<std::size_t>(lda),
                                  kp, (K & 1) && kp == kp_n - 1);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_add_epi32(acc[r][v], _mm256_madd_epi16(a, b[v]));
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    const __m256 rs =
        _mm256_set1_ps(dq_row ? dq_row[i0 + r] * dq_scale : 1.0f);
    for (int v = 0; v < NV; ++v) {
      __m256 res = _mm256_cvtepi32_ps(acc[r][v]);
      if (dq_row) res = _mm256_mul_ps(res, rs);
      if (dq_col) {
        const __m256 cs = (MASKED && v == NV - 1)
                              ? _mm256_maskload_ps(dq_col + j0 + 8 * v, mask)
                              : _mm256_loadu_ps(dq_col + j0 + 8 * v);
        res = _mm256_mul_ps(res, cs);
      }
      if (MASKED && v == NV - 1)
        _mm256_maskstore_ps(crow + 8 * v, mask, res);
      else
        _mm256_storeu_ps(crow + 8 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void i8_col_stripe(std::size_t lo, std::size_t hi, int j0, int K,
                          const std::int16_t* A, int lda,
                          const std::int16_t* Bp, float* C, int ldc,
                          const float* dq_row, const float* dq_col,
                          float dq_scale, __m256i mask) {
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

void gemm_i8_madd_avx2(std::size_t lo, std::size_t hi, int N, int K,
                       const std::int16_t* A, int lda, const std::int16_t* Bp,
                       float* C, int ldc, const float* dq_row,
                       const float* dq_col, float dq_scale) {
  const __m256i none = _mm256_setzero_si256();
  int j = 0;
  for (; j + 16 <= N; j += 16)
    i8_col_stripe<2, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                            dq_scale, none);
  const int rem = N - j;
  if (rem > 8)
    i8_col_stripe<2, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                           dq_scale, tail_mask(rem - 8));
  else if (rem == 8)
    i8_col_stripe<1, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                            dq_scale, none);
  else if (rem > 0)
    i8_col_stripe<1, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                           dq_scale, tail_mask(rem));
}

// The same kernel with madd+add fused into vpdpwssd. Lives in its own
// #pragma target region — and duplicates rather than shares the template —
// so the compiler cannot peephole VNNI encodings into the plain AVX2
// fallback above, which must run on non-VNNI hosts.
#pragma GCC push_options
#pragma GCC target("avx2,fma,avxvnni")

template <int MR, int NV, bool MASKED>
inline void i8_tile_vnni(const std::int16_t* A, int lda, std::size_t i0,
                         int j0, int K, const std::int16_t* Bp,
                         float* C, int ldc, const float* dq_row,
                         const float* dq_col, float dq_scale,
                         __m256i mask) {
  __m256i acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_si256();
  const int kp_n = (K + 1) / 2;
  const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
  const std::int16_t* pb =
      Bp + (static_cast<std::size_t>(j0) / 16) * pstride;
  for (int kp = 0; kp < kp_n; ++kp, pb += 32) {
    __m256i b[NV];
    for (int v = 0; v < NV; ++v)
      b[v] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(pb + 16 * v));
    for (int r = 0; r < MR; ++r) {
      const __m256i a = a_pair256(A + (i0 + r) * static_cast<std::size_t>(lda),
                                  kp, (K & 1) && kp == kp_n - 1);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_dpwssd_avx_epi32(acc[r][v], a, b[v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = C + (i0 + r) * static_cast<std::size_t>(ldc) + j0;
    const __m256 rs =
        _mm256_set1_ps(dq_row ? dq_row[i0 + r] * dq_scale : 1.0f);
    for (int v = 0; v < NV; ++v) {
      __m256 res = _mm256_cvtepi32_ps(acc[r][v]);
      if (dq_row) res = _mm256_mul_ps(res, rs);
      if (dq_col) {
        const __m256 cs = (MASKED && v == NV - 1)
                              ? _mm256_maskload_ps(dq_col + j0 + 8 * v, mask)
                              : _mm256_loadu_ps(dq_col + j0 + 8 * v);
        res = _mm256_mul_ps(res, cs);
      }
      if (MASKED && v == NV - 1)
        _mm256_maskstore_ps(crow + 8 * v, mask, res);
      else
        _mm256_storeu_ps(crow + 8 * v, res);
    }
  }
}

template <int NV, bool MASKED>
inline void i8_col_stripe_vnni(std::size_t lo, std::size_t hi, int j0,
                               int K, const std::int16_t* A, int lda,
                               const std::int16_t* Bp, float* C, int ldc,
                               const float* dq_row, const float* dq_col,
                               float dq_scale, __m256i mask) {
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

void gemm_i8_vnni_avx2(std::size_t lo, std::size_t hi, int N, int K,
                       const std::int16_t* A, int lda, const std::int16_t* Bp,
                       float* C, int ldc, const float* dq_row,
                       const float* dq_col, float dq_scale) {
  const __m256i none = _mm256_setzero_si256();
  int j = 0;
  for (; j + 16 <= N; j += 16)
    i8_col_stripe_vnni<2, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                 dq_col, dq_scale, none);
  const int rem = N - j;
  if (rem > 8)
    i8_col_stripe_vnni<2, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                dq_col, dq_scale, tail_mask(rem - 8));
  else if (rem == 8)
    i8_col_stripe_vnni<1, false>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                 dq_col, dq_scale, none);
  else if (rem > 0)
    i8_col_stripe_vnni<1, true>(lo, hi, j, K, A, lda, Bp, C, ldc, dq_row,
                                dq_col, dq_scale, tail_mask(rem));
}

#pragma GCC pop_options

void gemm_i8_nt_avx2(std::size_t lo, std::size_t hi, int N, int K,
                     const std::int16_t* A, int lda, const std::int16_t* Bp,
                     float* C, int ldc, const float* dq_row,
                     const float* dq_col, float dq_scale) {
  static const bool has_vnni = __builtin_cpu_supports("avxvnni");
  if (has_vnni)
    gemm_i8_vnni_avx2(lo, hi, N, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                      dq_scale);
  else
    gemm_i8_madd_avx2(lo, hi, N, K, A, lda, Bp, C, ldc, dq_row, dq_col,
                      dq_scale);
}

void quantize_s8_avx2(const float* x, float inv_scale, std::int16_t* q,
                      std::size_t n) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i vmax = _mm256_set1_epi32(127);
  const __m256i vmin = _mm256_set1_epi32(-127);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // cvtps_epi32 rounds to nearest-even, matching the scalar lrintf tail.
    __m256i v = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
    v = _mm256_min_epi32(vmax, _mm256_max_epi32(vmin, v));
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi32(lo, hi));
  }
  for (; i < n; ++i) {
    long v = std::lrintf(x[i] * inv_scale);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<std::int16_t>(v);
  }
}

void widen_bf16_avx2(const std::uint16_t* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    __m256i wide = _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16);
    _mm256_storeu_ps(out + i, _mm256_castsi256_ps(wide));
  }
  for (; i < n; ++i) {
    const std::uint32_t u = static_cast<std::uint32_t>(x[i]) << 16;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    out[i] = f;
  }
}

}  // namespace

const KernelTable* avx2_kernels() {
  static const KernelTable table = {
      gemm_nn_avx2,    gemm_nt_avx2, gemm_tn_avx2,
      silu_avx2,       relu_avx2,
      add_avx2,        mul_avx2,     scale_avx2,
      add_const_avx2,  axpy_avx2,
      reduce_sum_sumsq_avx2, normalize_affine_avx2,
      gemm_i8_nt_avx2, quantize_s8_avx2, widen_bf16_avx2,
      /*conv3x3_s1=*/nullptr, /*conv3x3_s1_gx=*/nullptr,
      /*conv3x3_s1_gw=*/nullptr,
  };
  return &table;
}

}  // namespace pp::nn::detail

#else  // build without AVX2 support: dispatch sees no table and stays scalar

namespace pp::nn::detail {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace pp::nn::detail

#endif
