// Internal dispatch table between the scalar, AVX2 and AVX-512 kernel
// sets. Every entry obeys the same two contracts:
//
//   * GEMM block kernels compute rows [lo, hi) of C and are called from
//     inside pp::parallel_for_chunks: a row's arithmetic (k order, lane
//     assignment) must not depend on lo/hi, so any thread chunking yields
//     bitwise-identical rows. The im2col-free conv entries are row blocks
//     of the same kind.
//   * Elementwise kernels are value-pure: output element i is a function
//     of input element i alone, independent of where i falls relative to
//     vector-width boundaries (vector tiers handle tails with masked
//     loads, never a differently-rounded scalar loop). This is what lets
//     fused GEMM epilogues produce bit-identical results to a separate
//     full-tensor bias pass.
//
// The quantized entries extend both contracts: gemm_i8_nt accumulates in
// exact int32 (so ANY chunking or k-tail split is bitwise identical by
// construction), and quantize_s8/widen_bf16 are value-pure per element
// (round-to-nearest-even / exact bit widening on every lane, including
// tails). Quantized operands hold int8-range values [-127, 127] widened
// into int16 lanes, so the vector kernels run plain loads + madd with no
// sign-extension shuffles in the inner loop.
//
// Not a public header: include only from src/nn translation units.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/simd.hpp"

namespace pp::nn::detail {

struct KernelTable {
  // --- GEMM row-range blocks (see gemm.hpp for the variant semantics) ---
  void (*gemm_nn)(std::size_t lo, std::size_t hi, int N, int K,
                  const float* A, int lda, const float* B, int ldb, float* C,
                  int ldc, bool accumulate);
  void (*gemm_nt)(std::size_t lo, std::size_t hi, int N, int K,
                  const float* A, int lda, const float* B, int ldb, float* C,
                  int ldc, bool accumulate);
  void (*gemm_tn)(std::size_t lo, std::size_t hi, int N, int K,
                  const float* A, int lda, const float* B, int ldb, float* C,
                  int ldc, bool accumulate);

  // --- Value-pure elementwise kernels ---
  void (*silu)(const float* x, float* y, std::size_t n);     ///< y = x·σ(x)
  void (*relu)(const float* x, float* y, std::size_t n);     ///< y = max(x,0)
  void (*add)(float* a, const float* b, std::size_t n);      ///< a += b
  void (*mul)(const float* a, const float* b, float* o, std::size_t n);
  void (*scale)(float* a, float s, std::size_t n);           ///< a *= s
  void (*add_const)(float* a, float c, std::size_t n);       ///< a += c
  void (*axpy)(float* a, const float* b, float s, std::size_t n);  ///< a += s·b

  // --- GroupNorm passes (called serially per (sample, group)) ---
  /// sum/sumsq of x[0..n) accumulated in double precision, fixed order.
  void (*reduce_sum_sumsq)(const float* x, std::size_t n, double* sum,
                           double* sumsq);
  /// y = g·((x − mu)·istd) + b
  void (*normalize_affine)(const float* x, float* y, std::size_t n, float mu,
                           float istd, float g, float b);

  // --- Quantized GEMM tier (see nn/quant.hpp for the scheme) ---
  /// Rows [lo, hi) of C{M,N} = A{M,K} · B^T over int8-range values in
  /// int16 lanes, with B pre-packed by pack_i8_b (nn/gemm.hpp) into
  /// 16-column panels whose rows are single 64-byte lines holding depth
  /// pairs {2kp, 2kp+1} interleaved per column. madd/vpdpwssd accumulates
  /// over k straight down C columns with no horizontal reductions, B-side
  /// loads walk each panel strictly sequentially (no large-N stride
  /// pathologies), padding columns/depths are packed as zeros so vector
  /// loads are always full-width, and any K — even K < the vector width —
  /// stays on the vector path. Each C[i][j] is the EXACT int32 dot
  /// product, dequantized at the register-level store (no second pass
  /// over C): converted to float, then multiplied by dq_row[i]*dq_scale
  /// when dq_row is set, then by dq_col[j] when dq_col is set — one IEEE
  /// multiply per term in a fixed order, so every tier (and any chunking)
  /// produces bitwise-identical floats. Null dq_row/dq_col skip their
  /// term; pass both null for the raw int32-as-float dots.
  void (*gemm_i8_nt)(std::size_t lo, std::size_t hi, int N, int K,
                     const std::int16_t* A, int lda, const std::int16_t* Bp,
                     float* C, int ldc, const float* dq_row,
                     const float* dq_col, float dq_scale);
  /// q[i] = clamp(round_to_nearest_even(x[i]·inv_scale), -127, 127).
  void (*quantize_s8)(const float* x, float inv_scale, std::int16_t* q,
                      std::size_t n);
  /// Exact widen of bf16 (the high half of an IEEE float) back to float:
  /// out[i] = bitcast<float>(uint32(x[i]) << 16).
  void (*widen_bf16)(const std::uint16_t* x, float* out, std::size_t n);

  // --- im2col-free convolution (null on tiers that keep im2col + GEMM) ---
  // A stride-1, pad-1 3x3 conv of one sample and both of its gradients,
  // each read straight from the {C,H,W} planes under conv3x3_tap_masks
  // lane masks instead of through an im2col or col2im buffer.
  /// Rows [lo, hi) of C{Co, H·W} = A{Co, Ci·9} · im2col(x) for a stride-1,
  /// pad-1 3x3 conv of one sample's {Ci,H,W} plane x, read straight from
  /// the plane. Bitwise equal to im2col + gemm_nn of the same table:
  /// every output runs gemm_nn's k-sequential FMA chain, and a pixel
  /// outside the plane enters as the +0.0f im2col writes. Overwrites C.
  void (*conv3x3_s1)(std::size_t lo, std::size_t hi, int Ci, int H, int W,
                     const float* A, const float* x, float* C);
  /// Input gradient: rows [lo, hi) (input channels) of gx{Ci, H·W} +=
  /// col2im(A{Co, Ci·9}^T · g{Co, H·W}), with A the weights and g the
  /// output gradient. Bitwise equal to gemm_tn into a col buffer followed
  /// by col2im_add: per tap, in weight order, gemm_tn's co-sequential FMA
  /// chain from +0.0f, added into gx only where the output pixel it came
  /// from exists.
  void (*conv3x3_s1_gx)(std::size_t lo, std::size_t hi, int Co, int Ci,
                        int H, int W, const float* A, const float* g,
                        float* gx);
  /// Weight gradient: rows [lo, hi) (output channels) of gw{Co, Ci·9} +=
  /// g{Co, H·W} · im2col(x)^T. Bitwise equal to im2col + gemm_nt with
  /// accumulate: every output runs gemm_nt's chain over the plane's
  /// 16-pixel blocks in order, one horizontal sum and one +=. masks holds
  /// conv3x3_tap_masks of every block (9 per block, block after block),
  /// built by the caller before the rows are split.
  void (*conv3x3_s1_gw)(std::size_t lo, std::size_t hi, int Ci, int H, int W,
                        const float* g, const float* x,
                        const std::uint16_t* masks, float* gw);
};

/// Lane masks, in weight order, of the nine taps of a stride-1, pad-1 3x3
/// conv at the 16 flat positions j.. of an H x W plane (P = H·W, col =
/// j mod W). Bit l of m[T] is set when position j + l is inside the plane
/// and so is its tap-T source pixel, at (ky−1)·W + (kx−1) from it: exactly
/// the lanes of im2col's tap-T row that are not +0.0f padding. Defined in
/// gemm.cpp, a baseline translation unit, so the wrappers there can build
/// mask tables as well as the AVX-512 kernels.
void conv3x3_tap_masks(int j, int col, int W, int P, std::uint16_t m[9]);

/// The portable kernel set (always available).
const KernelTable& scalar_kernels();

/// The AVX2+FMA kernel set, or nullptr when this binary was built without
/// it (non-x86 target or compiler lacking -mavx2).
const KernelTable* avx2_kernels();

/// The AVX-512 (F+BW+VL) kernel set, or nullptr when not compiled in.
const KernelTable* avx512_kernels();

/// Table for active_isa().
const KernelTable& active_kernels();

}  // namespace pp::nn::detail
