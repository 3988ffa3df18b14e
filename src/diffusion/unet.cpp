#include "diffusion/unet.hpp"

#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "nn/kernels.hpp"
#include "obs/trace.hpp"

namespace pp {

using nn::Tensor;
using nn::Var;

namespace {

Tensor conv_weight(int co, int ci, int k, Rng& rng) {
  float stddev = std::sqrt(2.0f / (static_cast<float>(ci) * k * k));
  return Tensor::randn({co, ci, k, k}, rng, stddev);
}

Tensor linear_weight(int o, int i, Rng& rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(i));
  return Tensor::randn({o, i}, rng, stddev);
}

Tensor ones(int n) { return Tensor::full({n}, 1.0f); }

// --- Tensor mode of run<X> ------------------------------------------------
//
// run/res/attn call the nn op names unqualified. With X = Var,
// argument-dependent lookup finds the autograd ops of pp::nn; with X =
// Tensor, these overloads run the same kernels in place on the tensor they
// take by value. UNet.InferMatchesForward* keeps the two modes bit-equal.

const Tensor& tensor_of(const Tensor& t) { return t; }
const Tensor& tensor_of(const Var& v) { return v->value; }

/// A constant operand: a graph leaf for Var, the tensor itself for Tensor.
template <class X>
X leaf(Tensor t) {
  if constexpr (std::is_same_v<X, Var>) return nn::make_input(std::move(t));
  else return t;
}

Tensor conv2d(const Tensor& x, const Var& w, const Var& b, int stride,
              int pad) {
  return nn::conv2d_forward(x, w->value, b->value, stride, pad);
}
Tensor linear(const Tensor& x, const Var& w, const Var& b) {
  return nn::linear_forward(x, w->value, b->value);
}
Tensor group_norm(const Tensor& x, const Var& gamma, const Var& beta,
                  int groups) {
  return nn::group_norm_forward(x, gamma->value, beta->value, groups, 1e-5f);
}
Tensor silu(Tensor x) {
  nn::silu_inplace(x);
  return x;
}
Tensor add(Tensor a, const Tensor& b) {
  nn::add_inplace(a, b);
  return a;
}
Tensor add_channel_bias(Tensor x, const Tensor& bias) {
  nn::add_channel_bias_inplace(x, bias);
  return x;
}
Tensor mul_scalar(Tensor a, float s) {
  nn::scale_inplace(a, s);
  return a;
}
Tensor softmax_lastdim(Tensor x) {
  nn::softmax_lastdim_inplace(x);
  return x;
}
Tensor reshape(const Tensor& x, std::vector<int> shape) {
  return x.reshaped(std::move(shape));
}
Tensor bmm(const Tensor& a, const Tensor& b) { return nn::bmm_forward(a, b); }
Tensor transpose_last2(const Tensor& x) {
  return nn::transpose_last2_forward(x);
}
Tensor upsample_nearest2(const Tensor& x) {
  return nn::upsample_nearest2_forward(x);
}
Tensor concat_channels(const Tensor& a, const Tensor& b) {
  return nn::concat_channels_forward(a, b);
}

}  // namespace

Var UNet::param(Tensor value) {
  params_.push_back(nn::make_param(std::move(value)));
  return params_.back();
}

UNet::ResBlock UNet::make_res_block(int cin, int cout, Rng& rng) {
  ResBlock rb;
  rb.gn1_g = param(ones(cin));
  rb.gn1_b = param(Tensor({cin}));
  rb.conv1_w = param(conv_weight(cout, cin, 3, rng));
  rb.conv1_b = param(Tensor({cout}));
  rb.t_w = param(linear_weight(cout, cfg_.time_dim, rng));
  rb.t_b = param(Tensor({cout}));
  rb.gn2_g = param(ones(cout));
  rb.gn2_b = param(Tensor({cout}));
  rb.conv2_w = param(conv_weight(cout, cout, 3, rng));
  rb.conv2_b = param(Tensor({cout}));
  if (cin != cout) {
    rb.skip_w = param(conv_weight(cout, cin, 1, rng));
    rb.skip_b = param(Tensor({cout}));
  }
  return rb;
}

UNet::AttentionBlock UNet::make_attention(int channels, Rng& rng) {
  AttentionBlock ab;
  ab.gn_g = param(ones(channels));
  ab.gn_b = param(Tensor({channels}));
  ab.q_w = param(conv_weight(channels, channels, 1, rng));
  ab.q_b = param(Tensor({channels}));
  ab.k_w = param(conv_weight(channels, channels, 1, rng));
  ab.k_b = param(Tensor({channels}));
  ab.v_w = param(conv_weight(channels, channels, 1, rng));
  ab.v_b = param(Tensor({channels}));
  // Zero-init projection: the block starts as the identity.
  ab.proj_w = param(Tensor({channels, channels, 1, 1}));
  ab.proj_b = param(Tensor({channels}));
  return ab;
}

UNet::UNet(UNetConfig cfg, Rng& rng) : cfg_(cfg) {
  PP_REQUIRE(cfg_.base_channels % cfg_.groups == 0);
  PP_REQUIRE(cfg_.time_dim >= 4 && cfg_.time_dim % 2 == 0);
  int C = cfg_.base_channels;

  tmlp1_w_ = param(linear_weight(cfg_.time_dim, cfg_.time_dim, rng));
  tmlp1_b_ = param(Tensor({cfg_.time_dim}));
  tmlp2_w_ = param(linear_weight(cfg_.time_dim, cfg_.time_dim, rng));
  tmlp2_b_ = param(Tensor({cfg_.time_dim}));

  stem_w_ = param(conv_weight(C, cfg_.in_channels, 3, rng));
  stem_b_ = param(Tensor({C}));

  rb0_ = make_res_block(C, C, rng);
  down1_w_ = param(conv_weight(2 * C, C, 3, rng));
  down1_b_ = param(Tensor({2 * C}));
  rb1_ = make_res_block(2 * C, 2 * C, rng);
  down2_w_ = param(conv_weight(4 * C, 2 * C, 3, rng));
  down2_b_ = param(Tensor({4 * C}));
  rb2_ = make_res_block(4 * C, 4 * C, rng);
  if (cfg_.attention) attn_ = make_attention(4 * C, rng);

  up1_w_ = param(conv_weight(2 * C, 4 * C, 3, rng));
  up1_b_ = param(Tensor({2 * C}));
  rb_up1_ = make_res_block(4 * C, 2 * C, rng);  // after concat with skip1
  up0_w_ = param(conv_weight(C, 2 * C, 3, rng));
  up0_b_ = param(Tensor({C}));
  rb_up0_ = make_res_block(2 * C, C, rng);  // after concat with skip0

  head_gn_g_ = param(ones(C));
  head_gn_b_ = param(Tensor({C}));
  // Zero-initialized head: the net starts by predicting epsilon = 0, a
  // stable starting point for DDPM training.
  head_w_ = param(Tensor({cfg_.out_channels, C, 3, 3}));
  head_b_ = param(Tensor({cfg_.out_channels}));
}

Tensor UNet::sinusoid_embedding(const std::vector<float>& t_frac) const {
  int N = static_cast<int>(t_frac.size());
  int D = cfg_.time_dim;
  int half = D / 2;
  Tensor emb({N, D});
  for (int n = 0; n < N; ++n) {
    for (int i = 0; i < half; ++i) {
      // Frequencies geometrically spaced in [1, 1000].
      double freq = std::pow(1000.0, static_cast<double>(i) / (half - 1));
      double a = static_cast<double>(t_frac[static_cast<std::size_t>(n)]) * freq;
      emb.at2(n, i) = static_cast<float>(std::sin(a));
      emb.at2(n, half + i) = static_cast<float>(std::cos(a));
    }
  }
  return emb;
}

// Var-mode operand order (add(h, shortcut), add(x, proj)) fixes the graph
// and so the order in which backward accumulates gradients.

template <class X>
X UNet::res(const ResBlock& rb, const X& x, const X& temb) const {
  X h = conv2d(silu(group_norm(x, rb.gn1_g, rb.gn1_b, cfg_.groups)),
               rb.conv1_w, rb.conv1_b, 1, 1);
  // Per-sample per-channel time shift.
  h = add_channel_bias(std::move(h), linear(temb, rb.t_w, rb.t_b));
  h = conv2d(silu(group_norm(h, rb.gn2_g, rb.gn2_b, cfg_.groups)),
             rb.conv2_w, rb.conv2_b, 1, 1);
  if (rb.skip_w)
    return add(std::move(h), conv2d(x, rb.skip_w, rb.skip_b, 1, 0));
  return add(std::move(h), x);
}

template <class X>
X UNet::attn(const AttentionBlock& ab, X x) const {
  const Tensor& xv = tensor_of(x);
  int N = xv.dim(0), C = xv.dim(1), H = xv.dim(2), W = xv.dim(3);
  int L = H * W;
  X h = group_norm(x, ab.gn_g, ab.gn_b, cfg_.groups);
  X q = reshape(conv2d(h, ab.q_w, ab.q_b, 1, 0), {N, C, L});
  X k = reshape(conv2d(h, ab.k_w, ab.k_b, 1, 0), {N, C, L});
  X v = reshape(conv2d(h, ab.v_w, ab.v_b, 1, 0), {N, C, L});
  // scores[n, i, j] = <q[:, i], k[:, j]> / sqrt(C); rows softmax to 1.
  float scale = 1.0f / std::sqrt(static_cast<float>(C));
  X scores = softmax_lastdim(mul_scalar(bmm(transpose_last2(q), k), scale));
  X out = reshape(bmm(v, transpose_last2(scores)), {N, C, H, W});
  return add(std::move(x), conv2d(out, ab.proj_w, ab.proj_b, 1, 0));
}

template <class X>
X UNet::run(const X& x, const std::vector<float>& t_frac) const {
  const Tensor& in = tensor_of(x);
  PP_REQUIRE_MSG(in.ndim() == 4 && in.dim(1) == cfg_.in_channels,
                 "UNet: bad input shape " + in.shape_str());
  PP_REQUIRE_MSG(in.dim(2) % 4 == 0 && in.dim(3) % 4 == 0,
                 "UNet: H and W must be divisible by 4");
  PP_REQUIRE_MSG(static_cast<int>(t_frac.size()) == in.dim(0),
                 "UNet: one timestep per sample required");
  X temb = linear(silu(linear(leaf<X>(sinusoid_embedding(t_frac)), tmlp1_w_,
                              tmlp1_b_)),
                  tmlp2_w_, tmlp2_b_);

  X h0 = res(rb0_, conv2d(x, stem_w_, stem_b_, 1, 1), temb);     // C  @ H
  X h1 = res(rb1_, conv2d(h0, down1_w_, down1_b_, 2, 1), temb);  // 2C @ H/2
  X h2 = res(rb2_, conv2d(h1, down2_w_, down2_b_, 2, 1), temb);  // 4C @ H/4
  if (cfg_.attention) h2 = attn(attn_, std::move(h2));

  // Each concat replaces its input before the block runs, so infer frees
  // the pre-concat activation first.
  X u1 = conv2d(upsample_nearest2(h2), up1_w_, up1_b_, 1, 1);  // 2C @ H/2
  u1 = concat_channels(u1, h1);                                // 4C
  u1 = res(rb_up1_, u1, temb);                                 // 2C
  X u0 = conv2d(upsample_nearest2(u1), up0_w_, up0_b_, 1, 1);  // C @ H
  u0 = concat_channels(u0, h0);                                // 2C
  u0 = res(rb_up0_, u0, temb);                                 // C

  return conv2d(silu(group_norm(u0, head_gn_g_, head_gn_b_, cfg_.groups)),
                head_w_, head_b_, 1, 1);
}

Var UNet::forward(const Tensor& x, const std::vector<float>& t_frac) const {
  PP_TRACE_SPAN("unet.forward");
  return run(nn::make_input(x), t_frac);
}

Tensor UNet::infer(const Tensor& x, const std::vector<float>& t_frac) const {
  PP_TRACE_SPAN("unet.infer");
  return run(x, t_frac);
}

}  // namespace pp
