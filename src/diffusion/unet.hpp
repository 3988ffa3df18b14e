// Conditional UNet epsilon-predictor for the DDPM.
//
// Replaces the Stable Diffusion UNet of the paper with a compact CPU-sized
// network. Input channels follow the SD-inpaint convention: the noisy image
// x_t is concatenated with the inpainting mask and the masked (known-region)
// image, so the network is natively an inpainting model. Timestep
// conditioning uses sinusoidal embeddings passed through a small MLP and
// injected per-channel into each residual block.
//
// Architecture (levels = 3):
//   stem conv3x3 (in -> C)
//   ResBlock(C)            at H
//   down conv s2 (C->2C), ResBlock(2C)   at H/2
//   down conv s2 (2C->4C), ResBlock(4C)  at H/4 (bottleneck)
//   up x2 + conv (4C->2C), concat skip, ResBlock(4C->2C)
//   up x2 + conv (2C->C),  concat skip, ResBlock(2C->C)
//   head: GN -> SiLU -> conv3x3 (C -> out)
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/ops.hpp"

namespace pp {

struct UNetConfig {
  int in_channels = 3;   ///< x_t + mask + masked image
  int out_channels = 1;  ///< epsilon prediction
  int base_channels = 16;
  int time_dim = 32;
  int groups = 4;
  /// Adds a single-head self-attention block at the bottleneck (H/4
  /// resolution), as in full-scale DDPM UNets. Off by default: attention
  /// changes the parameter set (invalidating checkpoints) and costs extra
  /// compute per step.
  bool attention = false;

  bool operator==(const UNetConfig&) const = default;
};

class UNet {
 public:
  /// Initializes all weights (He-style for convs, zeros for final conv).
  UNet(UNetConfig cfg, Rng& rng);

  const UNetConfig& config() const { return cfg_; }

  /// x: {N, in_channels, H, W} with H and W divisible by 4.
  /// t_frac: per-sample timestep fraction t/T in [0, 1], size N.
  /// Returns the epsilon prediction Var {N, out_channels, H, W}; the graph
  /// reaches all parameters, so backward() on a loss trains the net.
  nn::Var forward(const nn::Tensor& x, const std::vector<float>& t_frac) const;

  /// Graph-free inference: the same network as forward() (bit-identical
  /// output) on plain Tensors, with no autograd Node, backprop closure or
  /// retained graph. Use for sampling; use forward() whenever gradients are
  /// needed (see DESIGN.md "infer vs forward").
  nn::Tensor infer(const nn::Tensor& x, const std::vector<float>& t_frac) const;

  /// All trainable parameters in a stable order (for optimizers and
  /// checkpointing).
  std::vector<nn::Var> parameters() const { return params_; }

  std::size_t parameter_count() const { return nn::parameter_count(params_); }

 private:
  struct ResBlock {
    nn::Var gn1_g, gn1_b;
    nn::Var conv1_w, conv1_b;
    nn::Var t_w, t_b;  ///< time_dim -> cout projection
    nn::Var gn2_g, gn2_b;
    nn::Var conv2_w, conv2_b;
    nn::Var skip_w, skip_b;  ///< 1x1, only when cin != cout
  };

  struct AttentionBlock {
    nn::Var gn_g, gn_b;
    nn::Var q_w, q_b, k_w, k_b, v_w, v_b;  ///< 1x1 projections
    nn::Var proj_w, proj_b;
  };

  /// Makes a trainable parameter and appends it to params_, so the
  /// parameter (and checkpoint) order is the creation order.
  nn::Var param(nn::Tensor value);
  ResBlock make_res_block(int cin, int cout, Rng& rng);
  AttentionBlock make_attention(int channels, Rng& rng);
  nn::Tensor sinusoid_embedding(const std::vector<float>& t_frac) const;

  // The network, written once. X = nn::Var builds the autograd graph
  // (forward); X = nn::Tensor runs the same kernels graph-free (infer).
  template <class X>
  X run(const X& x, const std::vector<float>& t_frac) const;
  template <class X>
  X res(const ResBlock& rb, const X& x, const X& temb) const;
  template <class X>
  X attn(const AttentionBlock& ab, X x) const;

  UNetConfig cfg_;
  // Time MLP.
  nn::Var tmlp1_w_, tmlp1_b_, tmlp2_w_, tmlp2_b_;
  // Stem / downs / ups / head.
  nn::Var stem_w_, stem_b_;
  ResBlock rb0_, rb1_, rb2_, rb_up1_, rb_up0_;
  AttentionBlock attn_;  ///< used iff cfg_.attention
  nn::Var down1_w_, down1_b_, down2_w_, down2_b_;
  nn::Var up1_w_, up1_b_, up0_w_, up0_b_;
  nn::Var head_gn_g_, head_gn_b_, head_w_, head_b_;

  std::vector<nn::Var> params_;
};

}  // namespace pp
