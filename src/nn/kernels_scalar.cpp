// Portable scalar kernel set: the fallback every target compiles, and the
// reference the AVX2 set is parity-tested against. The GEMM blocks keep the
// KC/NC cache blocking with a 4-wide depth unroll; elementwise kernels are
// straight loops over std:: math.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/simd_kernels.hpp"

namespace pp::nn::detail {

namespace {

// Block sizes chosen for typical L1/L2: an NC-column stripe of C plus four
// B rows stay in L1; a KC x NC panel of B stays in L2 across the i loop.
constexpr int kNc = 512;
constexpr int kKc = 128;

void gemm_nn_scalar(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  for (int jc = 0; jc < N; jc += kNc) {
    const int nb = std::min(kNc, N - jc);
    for (int kc = 0; kc < K; kc += kKc) {
      const int kb = std::min(kKc, K - kc);
      for (std::size_t i = lo; i < hi; ++i) {
        float* c = C + i * static_cast<std::size_t>(ldc) + jc;
        if (kc == 0 && !accumulate)
          std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(nb));
        const float* arow = A + i * static_cast<std::size_t>(lda) + kc;
        int k = 0;
        for (; k + 4 <= kb; k += 4) {
          const float a0 = arow[k], a1 = arow[k + 1], a2 = arow[k + 2],
                      a3 = arow[k + 3];
          const float* b0 = B + static_cast<std::size_t>(kc + k) * ldb + jc;
          const float* b1 = b0 + ldb;
          const float* b2 = b1 + ldb;
          const float* b3 = b2 + ldb;
          for (int j = 0; j < nb; ++j)
            c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        for (; k < kb; ++k) {
          const float a = arow[k];
          const float* b = B + static_cast<std::size_t>(kc + k) * ldb + jc;
          for (int j = 0; j < nb; ++j) c[j] += a * b[j];
        }
      }
    }
  }
}

void gemm_nt_scalar(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  for (std::size_t i = lo; i < hi; ++i) {
    const float* arow = A + i * static_cast<std::size_t>(lda);
    float* crow = C + i * static_cast<std::size_t>(ldc);
    int j = 0;
    // Four dot products at a time: A row is loaded once per group.
    for (; j + 4 <= N; j += 4) {
      const float* b0 = B + static_cast<std::size_t>(j) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (int k = 0; k < K; ++k) {
        const float a = arow[k];
        s0 += a * b0[k];
        s1 += a * b1[k];
        s2 += a * b2[k];
        s3 += a * b3[k];
      }
      if (accumulate) {
        crow[j] += s0; crow[j + 1] += s1; crow[j + 2] += s2; crow[j + 3] += s3;
      } else {
        crow[j] = s0; crow[j + 1] = s1; crow[j + 2] = s2; crow[j + 3] = s3;
      }
    }
    for (; j < N; ++j) {
      const float* b = B + static_cast<std::size_t>(j) * ldb;
      float s = 0;
      for (int k = 0; k < K; ++k) s += arow[k] * b[k];
      if (accumulate) crow[j] += s; else crow[j] = s;
    }
  }
}

void gemm_tn_scalar(std::size_t lo, std::size_t hi, int N, int K,
                    const float* A, int lda, const float* B, int ldb, float* C,
                    int ldc, bool accumulate) {
  for (int jc = 0; jc < N; jc += kNc) {
    const int nb = std::min(kNc, N - jc);
    for (std::size_t i = lo; i < hi; ++i) {
      float* c = C + i * static_cast<std::size_t>(ldc) + jc;
      if (!accumulate)
        std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(nb));
      int k = 0;
      for (; k + 4 <= K; k += 4) {
        const float a0 = A[static_cast<std::size_t>(k) * lda + i];
        const float a1 = A[static_cast<std::size_t>(k + 1) * lda + i];
        const float a2 = A[static_cast<std::size_t>(k + 2) * lda + i];
        const float a3 = A[static_cast<std::size_t>(k + 3) * lda + i];
        const float* b0 = B + static_cast<std::size_t>(k) * ldb + jc;
        const float* b1 = b0 + ldb;
        const float* b2 = b1 + ldb;
        const float* b3 = b2 + ldb;
        for (int j = 0; j < nb; ++j)
          c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
      for (; k < K; ++k) {
        const float a = A[static_cast<std::size_t>(k) * lda + i];
        const float* b = B + static_cast<std::size_t>(k) * ldb + jc;
        for (int j = 0; j < nb; ++j) c[j] += a * b[j];
      }
    }
  }
}

void silu_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = x[i];
    y[i] = v / (1.0f + std::exp(-v));
  }
}

void relu_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0 ? x[i] : 0.0f;
}

void add_scalar(float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

void mul_scalar(const float* a, const float* b, float* o, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void scale_scalar(float* a, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= s;
}

void add_const_scalar(float* a, float c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += c;
}

void axpy_scalar(float* a, const float* b, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += s * b[i];
}

void reduce_sum_sumsq_scalar(const float* x, std::size_t n, double* sum,
                             double* sumsq) {
  double s = 0, s2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s += x[i];
    s2 += static_cast<double>(x[i]) * x[i];
  }
  *sum = s;
  *sumsq = s2;
}

void normalize_affine_scalar(const float* x, float* y, std::size_t n, float mu,
                             float istd, float g, float b) {
  for (std::size_t i = 0; i < n; ++i) {
    float xhat = (x[i] - mu) * istd;
    y[i] = g * xhat + b;
  }
}

void gemm_i8_nt_scalar(std::size_t lo, std::size_t hi, int N, int K,
                       const std::int16_t* A, int lda,
                       const std::int16_t* Bp, float* C, int ldc,
                       const float* dq_row, const float* dq_col,
                       float dq_scale) {
  // B arrives packed into 16-column panels (see pack_i8_b): each panel
  // row is one 64-byte line holding depths {2kp, 2kp+1} interleaved per
  // column, walked strictly sequentially over kp. Accumulation is plain
  // int32 — exact integer math, so any blocking or chunking is bitwise
  // identical by construction — with one rounding to float per output,
  // then the fused dequant multiplies in the fixed row-then-col order.
  const int kp_full = K / 2;
  const int kp_n = (K + 1) / 2;
  const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
  std::int32_t acc[16];
  for (int j0 = 0; j0 < N; j0 += 16) {
    const int jn = (j0 + 16 < N ? j0 + 16 : N) - j0;
    const std::int16_t* panel = Bp + static_cast<std::size_t>(j0 / 16) * pstride;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int16_t* arow = A + i * static_cast<std::size_t>(lda);
      float* crow = C + i * static_cast<std::size_t>(ldc);
      for (int jj = 0; jj < jn; ++jj) acc[jj] = 0;
      const std::int16_t* b = panel;
      for (int kp = 0; kp < kp_full; ++kp, b += 32) {
        const std::int32_t a0 = arow[2 * kp];
        const std::int32_t a1 = arow[2 * kp + 1];
        for (int jj = 0; jj < jn; ++jj)
          acc[jj] += a0 * b[2 * jj] + a1 * b[2 * jj + 1];
      }
      if (K & 1) {
        // Final unpaired depth: its packed partner slot is zero-filled,
        // and A's row is only K long, so read just the real value.
        const std::int32_t a0 = arow[K - 1];
        for (int jj = 0; jj < jn; ++jj) acc[jj] += a0 * b[2 * jj];
      }
      const float rs = dq_row ? dq_row[i] * dq_scale : 1.0f;
      for (int jj = 0; jj < jn; ++jj) {
        float v = static_cast<float>(acc[jj]);
        if (dq_row) v *= rs;
        if (dq_col) v *= dq_col[j0 + jj];
        crow[j0 + jj] = v;
      }
    }
  }
}

void quantize_s8_scalar(const float* x, float inv_scale, std::int16_t* q,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    // lrintf honors the current rounding mode (round-to-nearest-even by
    // default), matching the vector tiers' cvtps rounding exactly.
    long v = std::lrintf(x[i] * inv_scale);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<std::int16_t>(v);
  }
}

void widen_bf16_scalar(const std::uint16_t* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = static_cast<std::uint32_t>(x[i]) << 16;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    out[i] = f;
  }
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = {
      gemm_nn_scalar,    gemm_nt_scalar, gemm_tn_scalar,
      silu_scalar,       relu_scalar,
      add_scalar,        mul_scalar,     scale_scalar,
      add_const_scalar,  axpy_scalar,
      reduce_sum_sumsq_scalar, normalize_affine_scalar,
      gemm_i8_nt_scalar, quantize_s8_scalar, widen_bf16_scalar,
      /*conv3x3_s1=*/nullptr, /*conv3x3_s1_gx=*/nullptr,
      /*conv3x3_s1_gw=*/nullptr,
  };
  return table;
}

}  // namespace pp::nn::detail
