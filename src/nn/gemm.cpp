#include "nn/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/simd_kernels.hpp"
#include "nn/tensor.hpp"

namespace pp::nn {

namespace {

// Row ranges below kMinParallelRows run serially: the pool dispatch costs
// more than the work for the small matrices in gradient checks.
constexpr std::size_t kMinParallelRows = 8;

void rows_parallel(int m, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (static_cast<std::size_t>(m) < kMinParallelRows ||
      parallel_thread_count() <= 1) {
    fn(0, static_cast<std::size_t>(m));
    return;
  }
  parallel_for_chunks(0, static_cast<std::size_t>(m), fn);
}

// Runs inside the same chunk that produced rows [lo, hi), so the epilogue
// touches cache-hot data. Row i's arithmetic depends only on row i —
// chunk boundaries never change results. Dequantization goes first: it
// turns raw int32-as-float dot products into real values before the bias
// is added.
void apply_epilogue_rows(const detail::KernelTable& kt,
                         const GemmEpilogue& epi, std::size_t lo,
                         std::size_t hi, int N, float* C, int ldc) {
  const std::size_t n = static_cast<std::size_t>(N);
  for (std::size_t i = lo; i < hi; ++i) {
    float* row = C + i * static_cast<std::size_t>(ldc);
    if (epi.dequant_row)
      kt.scale(row, epi.dequant_row[i] * epi.dequant_scale, n);
    if (epi.dequant_col) kt.mul(row, epi.dequant_col, row, n);
    if (epi.bias) {
      const float b = epi.bias[i];
      if (b != 0.0f) kt.add_const(row, b, n);
    }
    if (epi.bias_per_col) kt.add(row, epi.bias_per_col, n);
  }
}

}  // namespace

void sgemm_nn(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue) {
  PP_REQUIRE_MSG(!epilogue || !accumulate,
                 "GEMM epilogue requires accumulate=false");
  const detail::KernelTable& kt = detail::active_kernels();
  rows_parallel(M, [&](std::size_t lo, std::size_t hi) {
    kt.gemm_nn(lo, hi, N, K, A, lda, B, ldb, C, ldc, accumulate);
    if (epilogue) apply_epilogue_rows(kt, *epilogue, lo, hi, N, C, ldc);
  });
}

void sgemm_nt(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue) {
  PP_REQUIRE_MSG(!epilogue || !accumulate,
                 "GEMM epilogue requires accumulate=false");
  const detail::KernelTable& kt = detail::active_kernels();
  rows_parallel(M, [&](std::size_t lo, std::size_t hi) {
    kt.gemm_nt(lo, hi, N, K, A, lda, B, ldb, C, ldc, accumulate);
    if (epilogue) apply_epilogue_rows(kt, *epilogue, lo, hi, N, C, ldc);
  });
}

void sgemm_tn(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue) {
  PP_REQUIRE_MSG(!epilogue || !accumulate,
                 "GEMM epilogue requires accumulate=false");
  const detail::KernelTable& kt = detail::active_kernels();
  rows_parallel(M, [&](std::size_t lo, std::size_t hi) {
    kt.gemm_tn(lo, hi, N, K, A, lda, B, ldb, C, ldc, accumulate);
    if (epilogue) apply_epilogue_rows(kt, *epilogue, lo, hi, N, C, ldc);
  });
}

void sconv3x3_s1(int Co, int Ci, int H, int W, const float* A,
                 const float* x, float* C, const GemmEpilogue* epilogue) {
  const detail::KernelTable& kt = detail::active_kernels();
  PP_REQUIRE_MSG(kt.conv3x3_s1, "sconv3x3_s1: no kernel on this ISA");
  const int P = H * W;
  rows_parallel(Co, [&](std::size_t lo, std::size_t hi) {
    kt.conv3x3_s1(lo, hi, Ci, H, W, A, x, C);
    if (epilogue) apply_epilogue_rows(kt, *epilogue, lo, hi, P, C, P);
  });
}

void sconv3x3_s1_grad_input(int Co, int Ci, int H, int W, const float* A,
                            const float* g, float* gx) {
  const detail::KernelTable& kt = detail::active_kernels();
  PP_REQUIRE_MSG(kt.conv3x3_s1_gx,
                 "sconv3x3_s1_grad_input: no kernel on this ISA");
  rows_parallel(Ci, [&](std::size_t lo, std::size_t hi) {
    kt.conv3x3_s1_gx(lo, hi, Co, Ci, H, W, A, g, gx);
  });
}

void sconv3x3_s1_grad_weight(int Co, int Ci, int H, int W, const float* g,
                             const float* x, float* gw) {
  const detail::KernelTable& kt = detail::active_kernels();
  PP_REQUIRE_MSG(kt.conv3x3_s1_gw,
                 "sconv3x3_s1_grad_weight: no kernel on this ISA");
  // Every row tile walks every block of the plane, so the blocks' masks
  // are built once, here on the calling thread, and shared read-only.
  const int P = H * W;
  const int blocks = (P + 15) / 16;
  Scratch<std::uint16_t> masks(static_cast<std::size_t>(blocks) * 9);
  for (int b = 0, col = 0; b < blocks; ++b, col = (col + 16) % W)
    detail::conv3x3_tap_masks(16 * b, col, W, P, masks.get() + 9 * b);
  rows_parallel(Co, [&](std::size_t lo, std::size_t hi) {
    kt.conv3x3_s1_gw(lo, hi, Ci, H, W, g, x, masks.get(), gw);
  });
}

namespace detail {

namespace {

/// Lanes l in [0, 16) with lo <= j + l < hi.
unsigned lane_range(int j, int lo, int hi) {
  const int a = std::clamp(lo - j, 0, 16);
  const int b = std::clamp(hi - j, 0, 16);
  return b > a ? ((1u << b) - 1u) & ~((1u << a) - 1u) : 0u;
}

}  // namespace

// Three row ranges (ky = 0 needs a row above, ky = 2 one below, ky = 1
// only a position inside the plane) AND two column sets (kx = 0 is dead
// in column 0, kx = 2 in column W−1).
void conv3x3_tap_masks(int j, int col, int W, int P, std::uint16_t m[9]) {
  const unsigned rows[3] = {lane_range(j, W, P), lane_range(j, 0, P),
                            lane_range(j, 0, P - W)};
  unsigned first = 0, last = 0;
  for (int l = col == 0 ? 0 : W - col; l < 16; l += W) first |= 1u << l;
  for (int l = W - 1 - col; l < 16; l += W) last |= 1u << l;
  const unsigned cols[3] = {~first, ~0u, ~last};
  for (int ky = 0; ky < 3; ++ky)
    for (int kx = 0; kx < 3; ++kx)
      m[ky * 3 + kx] = static_cast<std::uint16_t>(rows[ky] & cols[kx]);
}

}  // namespace detail

void pack_i8_b(const std::int16_t* B, int N, int K, I8Layout layout, int ldb,
               std::int16_t* out) {
  PP_REQUIRE_MSG(layout != I8Layout::kPacked,
                 "pack_i8_b: input is already packed");
  const int kp_n = (K + 1) / 2;
  const int panels = (N + 15) / 16;
  if (layout == I8Layout::kKN) {
    // Depth pair outermost so the two source rows stream sequentially
    // left to right; each panel-row write is one full 64-byte line.
    const std::size_t pstride = static_cast<std::size_t>(kp_n) * 32;
    for (int kp = 0; kp < kp_n; ++kp) {
      const std::int16_t* r0 = B + static_cast<std::size_t>(2 * kp) * ldb;
      const std::int16_t* r1 = r0 + ldb;  // dead when K is odd (guarded)
      const bool pair = 2 * kp + 1 < K;
      for (int p = 0; p < panels; ++p) {
        std::int16_t* o = out + p * pstride + kp * 32;
        const int j0 = 16 * p;
        const int jn = N - j0 < 16 ? N - j0 : 16;
        for (int jj = 0; jj < jn; ++jj) {
          o[2 * jj] = r0[j0 + jj];
          o[2 * jj + 1] = pair ? r1[j0 + jj] : static_cast<std::int16_t>(0);
        }
        for (int jj = jn; jj < 16; ++jj) {
          o[2 * jj] = 0;
          o[2 * jj + 1] = 0;
        }
      }
    }
    return;
  }
  // kNT: panel outermost, depth pair inner — the write stream is strictly
  // sequential across the whole packed buffer, and the 16 source rows a
  // panel gathers from stay cache-resident (their lines are revisited for
  // 16 consecutive packed rows).
  std::int16_t* o = out;
  for (int p = 0; p < panels; ++p) {
    const int j0 = 16 * p;
    const int jn = N - j0 < 16 ? N - j0 : 16;
    for (int kp = 0; kp < kp_n; ++kp, o += 32) {
      const bool pair = 2 * kp + 1 < K;
      for (int jj = 0; jj < jn; ++jj) {
        const std::int16_t* brow =
            B + static_cast<std::size_t>(j0 + jj) * ldb + 2 * kp;
        o[2 * jj] = brow[0];
        o[2 * jj + 1] = pair ? brow[1] : static_cast<std::int16_t>(0);
      }
      for (int jj = jn; jj < 16; ++jj) {
        o[2 * jj] = 0;
        o[2 * jj + 1] = 0;
      }
    }
  }
}

void sgemm_i8_nt(int M, int N, int K, const std::int16_t* A, int lda,
                 const std::int16_t* B, int ldb, float* C, int ldc,
                 const GemmEpilogue* epilogue, I8Layout b_layout) {
  PP_REQUIRE_MSG(epilogue && (epilogue->dequant_row || epilogue->dequant_col),
                 "quantized GEMM requires a dequantizing epilogue");
  const detail::KernelTable& kt = detail::active_kernels();
  const std::int16_t* bp = B;
  Scratch<std::int16_t> packed;
  if (b_layout != I8Layout::kPacked) {
    packed = Scratch<std::int16_t>(packed_i8_size(N, K));
    pack_i8_b(B, N, K, b_layout, ldb, packed.get());
    bp = packed.get();
  }
  // Dequantization is fused into the kernel's register-level store (same
  // one-multiply-per-term arithmetic as a separate pass, so results are
  // bit-identical); the row pass only runs when a bias remains.
  GemmEpilogue rest = *epilogue;
  rest.dequant_row = nullptr;
  rest.dequant_col = nullptr;
  const bool post = rest.bias || rest.bias_per_col;
  rows_parallel(M, [&](std::size_t lo, std::size_t hi) {
    kt.gemm_i8_nt(lo, hi, N, K, A, lda, bp, C, ldc, epilogue->dequant_row,
                  epilogue->dequant_col, epilogue->dequant_scale);
    if (post) apply_epilogue_rows(kt, rest, lo, hi, N, C, ldc);
  });
}

void im2col(const float* x, int ci, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t block = static_cast<std::size_t>(ho) * wo;
  float* dst = col;
  for (int c = 0; c < ci; ++c) {
    const float* xp = x + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < kh; ++ky) {
      // Output rows with ih = oh*stride + ky - pad inside [0, h).
      int oh_lo = 0;
      while (oh_lo < ho && oh_lo * stride + ky - pad < 0) ++oh_lo;
      int oh_hi = ho;
      while (oh_hi > oh_lo && (oh_hi - 1) * stride + ky - pad >= h) --oh_hi;
      for (int kx = 0; kx < kw; ++kx, dst += block) {
        // Output columns with iw = ow*stride + kx - pad inside [0, w).
        int ow_lo = 0;
        while (ow_lo < wo && ow_lo * stride + kx - pad < 0) ++ow_lo;
        int ow_hi = wo;
        while (ow_hi > ow_lo && (ow_hi - 1) * stride + kx - pad >= w) --ow_hi;
        if (oh_lo == oh_hi || ow_lo == ow_hi) {
          std::memset(dst, 0, sizeof(float) * block);
          continue;
        }
        std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(oh_lo) * wo);
        std::memset(dst + static_cast<std::size_t>(oh_hi) * wo, 0,
                    sizeof(float) * static_cast<std::size_t>(ho - oh_hi) * wo);
        if (stride == 1 && wo == w) {
          // The block is the plane shifted by s: one flat copy over the
          // valid rows, clipped to stay inside this channel's plane. The
          // shift wraps neighbouring-row pixels into the (at most pad)
          // border columns, which the row loop below overwrites with zeros.
          const std::ptrdiff_t s =
              static_cast<std::ptrdiff_t>(ky - pad) * w + (kx - pad);
          const std::ptrdiff_t lo =
              std::max<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(oh_lo) * w, -s);
          const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(oh_hi) * w,
              static_cast<std::ptrdiff_t>(plane) - s);
          std::memcpy(dst + lo, xp + lo + s,
                      sizeof(float) * static_cast<std::size_t>(hi - lo));
          for (int oh = oh_lo; oh < oh_hi; ++oh) {
            float* row = dst + static_cast<std::size_t>(oh) * wo;
            for (int ow = 0; ow < ow_lo; ++ow) row[ow] = 0.0f;
            for (int ow = ow_hi; ow < wo; ++ow) row[ow] = 0.0f;
          }
          continue;
        }
        for (int oh = oh_lo; oh < oh_hi; ++oh) {
          float* row = dst + static_cast<std::size_t>(oh) * wo;
          const float* src =
              xp + static_cast<std::size_t>(oh * stride + ky - pad) * w;
          for (int ow = 0; ow < ow_lo; ++ow) row[ow] = 0.0f;
          for (int ow = ow_lo; ow < ow_hi; ++ow)
            row[ow] = src[ow * stride + kx - pad];
          for (int ow = ow_hi; ow < wo; ++ow) row[ow] = 0.0f;
        }
      }
    }
  }
}

void col2im_add(const float* col, int ci, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x) {
  // Same (c, ky, kx, oh, ow) order as im2col, so every pixel of x receives
  // its contributions in a fixed order. No flat shift here: it would add
  // the wrapped border columns into the wrong pixel.
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t block = static_cast<std::size_t>(ho) * wo;
  const float* src = col;
  for (int c = 0; c < ci; ++c) {
    float* xp = x + static_cast<std::size_t>(c) * plane;
    for (int ky = 0; ky < kh; ++ky) {
      int oh_lo = 0;
      while (oh_lo < ho && oh_lo * stride + ky - pad < 0) ++oh_lo;
      int oh_hi = ho;
      while (oh_hi > oh_lo && (oh_hi - 1) * stride + ky - pad >= h) --oh_hi;
      for (int kx = 0; kx < kw; ++kx, src += block) {
        int ow_lo = 0;
        while (ow_lo < wo && ow_lo * stride + kx - pad < 0) ++ow_lo;
        int ow_hi = wo;
        while (ow_hi > ow_lo && (ow_hi - 1) * stride + kx - pad >= w) --ow_hi;
        for (int oh = oh_lo; oh < oh_hi; ++oh) {
          const float* crow = src + static_cast<std::size_t>(oh) * wo;
          float* xrow = xp + static_cast<std::size_t>(oh * stride + ky - pad) * w;
          for (int ow = ow_lo; ow < ow_hi; ++ow)
            xrow[ow * stride + kx - pad] += crow[ow];
        }
      }
    }
  }
}

}  // namespace pp::nn
