// Differentiable operations over Vars.
//
// Every op returns a new Var whose backprop closure scatters gradients to
// its parents. Shapes are validated eagerly (pp::Error on mismatch).
// Convolutions are multithreaded via pp::parallel_for; everything else is
// single-threaded (cheap relative to conv).
#pragma once

#include "nn/autograd.hpp"

namespace pp::nn {

// --- Elementwise -------------------------------------------------------------
Var add(const Var& a, const Var& b);        ///< a + b (same shape)
Var mul(const Var& a, const Var& b);        ///< elementwise product
Var mul_scalar(const Var& a, float s);
Var silu(const Var& x);                     ///< x * sigmoid(x)
Var relu(const Var& x);

// --- Shape / structure -------------------------------------------------------
/// Concatenates two NCHW tensors along the channel axis.
Var concat_channels(const Var& a, const Var& b);
/// Broadcast-adds a {C} or {N,C} bias over an {N,C,H,W} tensor (time
/// embedding injection: per-sample per-channel shift).
Var add_channel_bias(const Var& x, const Var& bias);
Var reshape(const Var& x, std::vector<int> shape);

// --- Dense / conv ------------------------------------------------------------
/// x:{N,I} w:{O,I} b:{O} -> {N,O}
Var linear(const Var& x, const Var& w, const Var& b);
/// x:{N,Ci,H,W} w:{Co,Ci,Kh,Kw} b:{Co}; SAME-style zero padding `pad`,
/// stride `stride`. Output {N,Co,(H+2p-Kh)/s+1,(W+2p-Kw)/s+1}.
Var conv2d(const Var& x, const Var& w, const Var& b, int stride = 1,
           int pad = 1);

// --- Batched linear algebra (attention support) --------------------------------
/// Batched matrix multiply: a{B,M,K} x b{B,K,N} -> {B,M,N}.
Var bmm(const Var& a, const Var& b);
/// Swaps the last two axes of a 3-D tensor: {B,M,N} -> {B,N,M}.
Var transpose_last2(const Var& x);
/// Softmax over the last axis (any rank >= 1), numerically stable.
Var softmax_lastdim(const Var& x);

// --- Resampling --------------------------------------------------------------
Var upsample_nearest2(const Var& x);  ///< {N,C,H,W} -> {N,C,2H,2W}

// --- Normalization -----------------------------------------------------------
/// GroupNorm over {N,C,H,W}: per (sample, group) standardization followed by
/// per-channel affine (gamma, beta of shape {C}). C must divide by groups.
Var group_norm(const Var& x, const Var& gamma, const Var& beta, int groups,
               float eps = 1e-5f);

// --- Losses (scalar outputs) -------------------------------------------------
Var mse_loss(const Var& pred, const Var& target);  ///< mean squared error
/// Numerically-stable binary cross-entropy on logits (mean reduction).
Var bce_with_logits(const Var& logits, const Var& target);
Var mean(const Var& x);

}  // namespace pp::nn
