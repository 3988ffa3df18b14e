// Graph-free tensor kernels: the forward (and conv backward) compute of the
// NN ops, operating on plain Tensors with no autograd Node allocation.
//
// Two consumers share these:
//   * the autograd ops in ops.cpp, which call them for values and wrap the
//     results in Nodes;
//   * the Tensor overloads in unet.cpp that UNet::infer (and so the DDPM
//     sampler) runs the network through, so a sampling step builds no graph
//     at all.
//
// conv2d dispatches between two algorithms:
//   * kDirect — the original nested-loop convolution, cheapest for tiny
//     problems where im2col overhead dominates;
//   * kGemm — im2col packing into a col buffer the call owns (Scratch,
//     tensor.hpp) followed by a blocked SGEMM (see gemm.hpp); im2col writes
//     one (channel, tap) block at a time, a single shifted copy of the
//     plane for stride-1 convs whose output is as wide as the input.
//     1x1/stride-1/pad-0 convs skip the packing entirely and GEMM straight
//     over the input plane. On AVX-512, fp32 and bf16 3x3/stride-1/pad-1
//     convs skip it too: the
//     kernel reads each B vector straight from the plane under per-tap
//     lane masks (sconv3x3_s1, span nn.conv2d.implicit), bitwise equal to
//     im2col + SGEMM. Scalar, AVX2 and int8 keep im2col.
// The gradients take the same path as the forward: direct loops, or
// GEMM over an im2col buffer (weight) and a col buffer scattered back by
// col2im_add (input). On AVX-512 both gradients of a 3x3/stride-1/pad-1
// conv read the planes directly instead (sconv3x3_s1_grad_weight /
// _grad_input, counter nn.conv2d.dispatch.implicit_grad), bitwise equal
// to the buffered path. Spans nn.conv2d.grad_weight / grad_input cover
// every algorithm.
// kAuto picks via conv2d_use_gemm (see DESIGN.md for the heuristic; its
// thresholds predate the block-copy im2col and are kept so no conv's
// output bits move).
#pragma once

#include <functional>
#include <vector>

#include "nn/tensor.hpp"

namespace pp::nn {

/// Runs fn(lo, hi) covering [0, n): serial below a size threshold, split
/// across the shared pool above it. Used by the hot elementwise ops.
void eltwise_parallel(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& fn);

enum class ConvAlgo { kAuto, kDirect, kGemm };

/// Dispatch heuristic: true when the GEMM path is expected to win, i.e. the
/// per-sample multiply count Co*Ci*Kh*Kw*Ho*Wo is large enough to amortize
/// the im2col pack and the output plane is non-trivial.
bool conv2d_use_gemm(int co, int ci, int kh, int kw, int ho, int wo);

/// x{N,Ci,H,W} conv w{Co,Ci,Kh,Kw} + b{Co} -> {N,Co,Ho,Wo}. Validates
/// shapes (pp::Error on mismatch). The bias add is fused into the GEMM
/// epilogue (bit-identical to a separate pass on the same ISA).
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      int stride, int pad, ConvAlgo algo = ConvAlgo::kAuto);

/// Accumulates d(loss)/d(bias) into gb{Co} given gout{N,Co,Ho,Wo}.
void conv2d_grad_bias(const Tensor& gout, Tensor& gb);

/// Accumulates d(loss)/d(w) into gw given the forward input and gout.
/// Validates shapes like conv2d_forward: gw{Co,Ci,Kh,Kw} must agree with
/// x{N,Ci,H,W}, and gout must be the forward's {N,Co,Ho,Wo} (pp::Error).
void conv2d_grad_weight(const Tensor& x, const Tensor& gout, Tensor& gw,
                        int stride, int pad, ConvAlgo algo = ConvAlgo::kAuto);

/// Accumulates d(loss)/d(x) into gx given the weights and gout. gx must
/// have the forward input's shape; shapes are validated as above.
void conv2d_grad_input(const Tensor& w, const Tensor& gout, Tensor& gx,
                       int stride, int pad, ConvAlgo algo = ConvAlgo::kAuto);

/// x{N,I} * w{O,I}^T + b{O} -> {N,O} (SGEMM-NT backed; the bias add is
/// fused into the GEMM epilogue).
Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b);

/// GroupNorm forward; when mean/inv_std are non-null they receive the
/// per-(sample,group) statistics needed by the backward pass.
Tensor group_norm_forward(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, int groups, float eps,
                          std::vector<float>* mean = nullptr,
                          std::vector<float>* inv_std = nullptr);

Tensor silu_forward(const Tensor& x);
void silu_inplace(Tensor& x);
void add_inplace(Tensor& a, const Tensor& b);       ///< a += b
void scale_inplace(Tensor& a, float s);             ///< a *= s
/// x{N,C,H,W} += bias broadcast over H,W; bias is {C} or {N,C}.
void add_channel_bias_inplace(Tensor& x, const Tensor& bias);

Tensor concat_channels_forward(const Tensor& a, const Tensor& b);
Tensor upsample_nearest2_forward(const Tensor& x);

/// a{B,M,K} x b{B,K,N} -> {B,M,N} (SGEMM-NN per batch).
Tensor bmm_forward(const Tensor& a, const Tensor& b);
Tensor transpose_last2_forward(const Tensor& x);
void softmax_lastdim_inplace(Tensor& x);

}  // namespace pp::nn
