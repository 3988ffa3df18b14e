// Single-precision and quantized GEMM with runtime-dispatched microkernels
// (scalar, AVX2+FMA or AVX-512, see nn/simd.hpp), the im2col/col2im
// packing that turns convolutions into GEMM calls, and the im2col-free
// 3x3 convolution the AVX-512 tier runs instead of that packing.
//
// All matrices are row-major with explicit leading dimensions (row
// strides). Rows of C are split across pp::parallel_for_chunks (disjoint
// writes, no synchronization); the per-row arithmetic is independent of
// the chunking, so results are bitwise identical for any PP_THREADS.
// `accumulate` selects C += A*B vs C = A*B.
//
// A GemmEpilogue fuses the caller's usual post-GEMM pass (dequantization
// and bias add) into the row chunk that just produced those rows, while the
// data is still cache-hot. The epilogue runs the same dispatched
// value-pure kernels a separate full-tensor pass would, so fused and
// unfused results are bit-identical on a fixed ISA.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/simd.hpp"

namespace pp::nn {

/// Optional fused post-pass over freshly computed rows of C. Only valid
/// with accumulate=false.
///
/// Dequantization terms run FIRST (they rescale raw int32 dot products
/// from sgemm_i8_nt into real values): `dequant_row` multiplies row i by
/// dequant_row[i]*dequant_scale (conv layout: per-output-channel weight
/// scale x per-tensor activation scale), `dequant_col` multiplies column
/// j by dequant_col[j] (linear layout: scales precombined per column).
/// sgemm_i8_nt applies them inside the kernel's register-level store —
/// no second pass over C — with one IEEE multiply per term in a fixed
/// order, so results stay bit-identical to a separate value-pure pass
/// under any thread chunking.
///
/// Then `bias` adds bias[i] to every element of row i (conv layout; zero
/// entries are skipped exactly like the unfused path) and `bias_per_col`
/// adds bias_per_col[j] to column j (linear layout).
struct GemmEpilogue {
  const float* dequant_row = nullptr;
  const float* dequant_col = nullptr;
  float dequant_scale = 1.0f;
  const float* bias = nullptr;
  const float* bias_per_col = nullptr;
};

/// C{M,N} (+)= A{M,K} * B{K,N}
void sgemm_nn(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue = nullptr);

/// C{M,N} (+)= A{M,K} * B{N,K}^T  (dot-product kernel; B stored row-major
/// as {N,K}, so C[i][j] = <A row i, B row j>).
void sgemm_nt(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue = nullptr);

/// C{M,N} (+)= A{K,M}^T * B{K,N}  (A stored row-major as {K,M}).
void sgemm_tn(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate,
              const GemmEpilogue* epilogue = nullptr);

/// C{Co, H·W} = A{Co, Ci·9} · im2col(x) for a stride-1, pad-1 3x3 conv of
/// one sample's {Ci,H,W} plane x, computed without the im2col matrix.
/// Bitwise equal to im2col + sgemm_nn with the same epilogue on the same
/// ISA. Only the AVX-512 kernel table has this kernel (its conv3x3_s1
/// entry is null elsewhere, and the call is a pp::Error); overwrites C.
void sconv3x3_s1(int Co, int Ci, int H, int W, const float* A,
                 const float* x, float* C,
                 const GemmEpilogue* epilogue = nullptr);

/// Storage order of the B operand handed to sgemm_i8_nt. kNT is B{N,K}
/// row-major (weights as QuantizedModelWeights stores them); kKN is B{K,N}
/// row-major (a quantized im2col panel, no pre-transpose needed); kPacked
/// means the caller already ran pack_i8_b (static weights pack once, not
/// per call) and ldb is ignored.
enum class I8Layout { kNT, kKN, kPacked };

/// int16 count of the packed form of a B{N,K} operand:
/// ceil(N/16) panels x ceil(K/2) depth pairs x one 64-byte row each.
inline std::size_t packed_i8_size(int N, int K) {
  return static_cast<std::size_t>((N + 15) / 16) * ((K + 1) / 2) * 32;
}

/// Pair-packs B into the panel layout the quantized kernels consume: 16
/// columns per panel, each packed panel row one 64-byte cache line holding
/// those columns' values for depths {2kp, 2kp+1} interleaved —
/// out[(p*ceil(K/2) + kp)*32 + 2*jj + t] = B[16p+jj][2kp+t] (kNT view).
/// The odd-K tail slot and the last panel's columns past N are
/// zero-filled, so kernels always load full vectors (only C stores need
/// masking) and walk each panel strictly sequentially — B-side access is
/// stride-free no matter how large N is. Packing is an exact int16 copy,
/// so it never affects results — it only lets the vector kernels run
/// madd/vpdpwssd straight down C columns with no horizontal reductions.
/// out must hold packed_i8_size(N, K) values.
void pack_i8_b(const std::int16_t* B, int N, int K, I8Layout layout, int ldb,
               std::int16_t* out);

/// Quantized C{M,N} = A{M,K} · B^T over int8-range values stored in int16
/// lanes (see nn/quant.hpp). B is given in its natural layout (see
/// I8Layout) and pair-packed internally once per call, or pre-packed by
/// the caller (kPacked). Each C[i][j] is computed as the EXACT int32 dot
/// product (bitwise stable under any chunking), then dequantized at the
/// register-level store via the mandatory epilogue's dequant_row /
/// dequant_col; the bias follows as a fused row pass. No accumulate
/// form: quantized GEMMs always overwrite.
void sgemm_i8_nt(int M, int N, int K, const std::int16_t* A, int lda,
                 const std::int16_t* B, int ldb, float* C, int ldc,
                 const GemmEpilogue* epilogue,
                 I8Layout b_layout = I8Layout::kNT);

/// Unrolls one sample's {Ci,H,W} plane into col{Ci*Kh*Kw, Ho*Wo}:
/// col[(ci*Kh+kh)*Kw+kw][oh*Wo+ow] = x[ci][oh*stride+kh-pad][ow*stride+kw-pad]
/// with zeros where the receptive field leaves the image. Works one
/// (channel, kh, kw) block at a time with the valid row and column ranges
/// computed once per tap; at stride 1 with Wo == W (every 3x3 pad-1 conv)
/// a block is the plane shifted by (kh-pad)*W + (kw-pad), so it is one
/// flat memcpy plus zeroing of the at most `pad` border columns per row.
void im2col(const float* x, int ci, int h, int w, int kh, int kw, int stride,
            int pad, int ho, int wo, float* col);

/// Adjoint of im2col: scatter-adds col{Ci*Kh*Kw, Ho*Wo} back into the
/// {Ci,H,W} plane (x is accumulated into, not overwritten).
void col2im_add(const float* col, int ci, int h, int w, int kh, int kw,
                int stride, int pad, int ho, int wo, float* x);

}  // namespace pp::nn
