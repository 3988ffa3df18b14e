#include "nn/ops.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "nn/simd_kernels.hpp"

namespace pp::nn {

namespace {

void require_same_shape(const Var& a, const Var& b, const char* op) {
  PP_REQUIRE_MSG(a->value.same_shape(b->value),
                 std::string(op) + ": shape mismatch " + a->value.shape_str() +
                     " vs " + b->value.shape_str());
}

void accumulate(Node& parent, const Tensor& contribution) {
  if (!parent.requires_grad) return;
  parent.ensure_grad().add_scaled(contribution, 1.0f);
}

}  // namespace

// --- Elementwise -------------------------------------------------------------

Var add(const Var& a, const Var& b) {
  require_same_shape(a, b, "add");
  Tensor out = a->value;
  out.add_scaled(b->value, 1.0f);
  return make_op(std::move(out), {a, b},
                 [](Node& n) {
                   accumulate(*n.parents[0], n.grad);
                   accumulate(*n.parents[1], n.grad);
                 },
                 "add");
}

Var mul(const Var& a, const Var& b) {
  require_same_shape(a, b, "mul");
  Tensor out = a->value.zeros_like();
  {
    const float* av = a->value.data();
    const float* bv = b->value.data();
    float* ov = out.data();
    const detail::KernelTable& kt = detail::active_kernels();
    eltwise_parallel(out.numel(), [&](std::size_t lo, std::size_t hi) {
      kt.mul(av + lo, bv + lo, ov + lo, hi - lo);
    });
  }
  return make_op(std::move(out), {a, b},
                 [](Node& n) {
                   Node& a = *n.parents[0];
                   Node& b = *n.parents[1];
                   const float* g = n.grad.data();
                   if (a.requires_grad) {
                     float* ga = a.ensure_grad().data();
                     const float* bv = b.value.data();
                     eltwise_parallel(n.grad.numel(),
                                      [&](std::size_t lo, std::size_t hi) {
                                        for (std::size_t i = lo; i < hi; ++i)
                                          ga[i] += g[i] * bv[i];
                                      });
                   }
                   if (b.requires_grad) {
                     float* gb = b.ensure_grad().data();
                     const float* av = a.value.data();
                     eltwise_parallel(n.grad.numel(),
                                      [&](std::size_t lo, std::size_t hi) {
                                        for (std::size_t i = lo; i < hi; ++i)
                                          gb[i] += g[i] * av[i];
                                      });
                   }
                 },
                 "mul");
}

Var mul_scalar(const Var& a, float s) {
  Tensor out = a->value;
  detail::active_kernels().scale(out.data(), s, out.numel());
  return make_op(std::move(out), {a},
                 [s](Node& n) {
                   if (!n.parents[0]->requires_grad) return;
                   n.parents[0]->ensure_grad().add_scaled(n.grad, s);
                 },
                 "mul_scalar");
}

Var silu(const Var& x) {
  Tensor out = silu_forward(x->value);
  return make_op(std::move(out), {x},
                 [](Node& n) {
                   Node& x = *n.parents[0];
                   if (!x.requires_grad) return;
                   float* gx = x.ensure_grad().data();
                   const float* xv = x.value.data();
                   const float* g = n.grad.data();
                   eltwise_parallel(n.grad.numel(),
                                    [&](std::size_t lo, std::size_t hi) {
                                      for (std::size_t i = lo; i < hi; ++i) {
                                        float v = xv[i];
                                        float sig = 1.0f / (1.0f + std::exp(-v));
                                        gx[i] += g[i] * (sig * (1.0f + v * (1.0f - sig)));
                                      }
                                    });
                 },
                 "silu");
}

Var relu(const Var& x) {
  Tensor out = x->value.zeros_like();
  {
    const float* xv = x->value.data();
    float* ov = out.data();
    const detail::KernelTable& kt = detail::active_kernels();
    eltwise_parallel(out.numel(), [&](std::size_t lo, std::size_t hi) {
      kt.relu(xv + lo, ov + lo, hi - lo);
    });
  }
  return make_op(std::move(out), {x},
                 [](Node& n) {
                   Node& x = *n.parents[0];
                   if (!x.requires_grad) return;
                   float* gx = x.ensure_grad().data();
                   const float* xv = x.value.data();
                   const float* g = n.grad.data();
                   eltwise_parallel(n.grad.numel(),
                                    [&](std::size_t lo, std::size_t hi) {
                                      for (std::size_t i = lo; i < hi; ++i)
                                        if (xv[i] > 0) gx[i] += g[i];
                                    });
                 },
                 "relu");
}

// --- Shape / structure -------------------------------------------------------

Var concat_channels(const Var& a, const Var& b) {
  PP_REQUIRE_MSG(a->value.ndim() == 4 && b->value.ndim() == 4,
                 "concat_channels needs 4-D tensors");
  const auto& sa = a->value.shape();
  const auto& sb = b->value.shape();
  PP_REQUIRE_MSG(sa[0] == sb[0] && sa[2] == sb[2] && sa[3] == sb[3],
                 "concat_channels: N/H/W mismatch");
  int N = sa[0], Ca = sa[1], Cb = sb[1], H = sa[2], W = sa[3];
  std::size_t plane = static_cast<std::size_t>(H) * W;
  Tensor out = concat_channels_forward(a->value, b->value);
  return make_op(std::move(out), {a, b},
                 [Ca, Cb, plane, N](Node& n) {
                   Node& a = *n.parents[0];
                   Node& b = *n.parents[1];
                   for (int i = 0; i < N; ++i) {
                     const float* g =
                         n.grad.data() + static_cast<std::size_t>(i) * (Ca + Cb) * plane;
                     if (a.requires_grad) {
                       float* ga = a.ensure_grad().data() +
                                   static_cast<std::size_t>(i) * Ca * plane;
                       for (std::size_t k = 0; k < static_cast<std::size_t>(Ca) * plane; ++k)
                         ga[k] += g[k];
                     }
                     if (b.requires_grad) {
                       float* gb = b.ensure_grad().data() +
                                   static_cast<std::size_t>(i) * Cb * plane;
                       const float* gsrc = g + static_cast<std::size_t>(Ca) * plane;
                       for (std::size_t k = 0; k < static_cast<std::size_t>(Cb) * plane; ++k)
                         gb[k] += gsrc[k];
                     }
                   }
                 },
                 "concat_channels");
}

Var add_channel_bias(const Var& x, const Var& bias) {
  PP_REQUIRE_MSG(x->value.ndim() == 4, "add_channel_bias needs 4-D input");
  int N = x->value.dim(0), C = x->value.dim(1), H = x->value.dim(2),
      W = x->value.dim(3);
  bool per_sample = bias->value.ndim() == 2;
  if (per_sample) {
    PP_REQUIRE_MSG(bias->value.dim(0) == N && bias->value.dim(1) == C,
                   "add_channel_bias: bias {N,C} mismatch");
  } else {
    PP_REQUIRE_MSG(bias->value.ndim() == 1 && bias->value.dim(0) == C,
                   "add_channel_bias: bias {C} mismatch");
  }
  Tensor out = x->value;
  std::size_t plane = static_cast<std::size_t>(H) * W;
  add_channel_bias_inplace(out, bias->value);
  return make_op(std::move(out), {x, bias},
                 [N, C, plane, per_sample](Node& n) {
                   accumulate(*n.parents[0], n.grad);
                   Node& bias = *n.parents[1];
                   if (!bias.requires_grad) return;
                   Tensor& gb = bias.ensure_grad();
                   for (int i = 0; i < N; ++i)
                     for (int c = 0; c < C; ++c) {
                       const float* g = n.grad.data() +
                                        (static_cast<std::size_t>(i) * C + c) * plane;
                       double s = 0;
                       for (std::size_t k = 0; k < plane; ++k) s += g[k];
                       if (per_sample)
                         gb.at2(i, c) += static_cast<float>(s);
                       else
                         gb[static_cast<std::size_t>(c)] += static_cast<float>(s);
                     }
                 },
                 "add_channel_bias");
}

Var reshape(const Var& x, std::vector<int> shape) {
  Tensor out = x->value.reshaped(shape);
  return make_op(std::move(out), {x},
                 [](Node& n) {
                   Node& x = *n.parents[0];
                   if (!x.requires_grad) return;
                   Tensor& gx = x.ensure_grad();
                   for (std::size_t i = 0; i < n.grad.numel(); ++i)
                     gx[i] += n.grad[i];
                 },
                 "reshape");
}

// --- Dense -------------------------------------------------------------------

Var linear(const Var& x, const Var& w, const Var& b) {
  PP_REQUIRE_MSG(x->value.ndim() == 2 && w->value.ndim() == 2 &&
                     b->value.ndim() == 1,
                 "linear: expected x{N,I} w{O,I} b{O}");
  int N = x->value.dim(0), I = x->value.dim(1), O = w->value.dim(0);
  PP_REQUIRE_MSG(w->value.dim(1) == I && b->value.dim(0) == O,
                 "linear: dimension mismatch");
  Tensor out = linear_forward(x->value, w->value, b->value);
  return make_op(std::move(out), {x, w, b},
                 [N, I, O](Node& n) {
                   Node& x = *n.parents[0];
                   Node& w = *n.parents[1];
                   Node& b = *n.parents[2];
                   const float* g = n.grad.data();
                   if (x.requires_grad) {
                     // gx{N,I} += g{N,O} * w{O,I}
                     sgemm_nn(N, I, O, g, O, w.value.data(), I,
                              x.ensure_grad().data(), I, true);
                   }
                   if (w.requires_grad) {
                     // gw{O,I} += g^T{O,N} * x{N,I}
                     sgemm_tn(O, I, N, g, O, x.value.data(), I,
                              w.ensure_grad().data(), I, true);
                   }
                   if (b.requires_grad) {
                     Tensor& gb = b.ensure_grad();
                     for (int i = 0; i < N; ++i)
                       for (int o = 0; o < O; ++o)
                         gb[static_cast<std::size_t>(o)] += n.grad.at2(i, o);
                   }
                 },
                 "linear");
}

// --- Conv --------------------------------------------------------------------

Var conv2d(const Var& x, const Var& w, const Var& b, int stride, int pad) {
  // All shape validation and algorithm dispatch (direct vs im2col+GEMM)
  // lives in the kernel layer, shared with the graph-free inference path.
  Tensor out = conv2d_forward(x->value, w->value, b->value, stride, pad);
  return make_op(
      std::move(out), {x, w, b},
      [stride, pad](Node& node) {
        Node& x = *node.parents[0];
        Node& w = *node.parents[1];
        Node& b = *node.parents[2];
        if (b.requires_grad) conv2d_grad_bias(node.grad, b.ensure_grad());
        if (w.requires_grad)
          conv2d_grad_weight(x.value, node.grad, w.ensure_grad(), stride, pad);
        if (x.requires_grad)
          conv2d_grad_input(w.value, node.grad, x.ensure_grad(), stride, pad);
      },
      "conv2d");
}

// --- Batched linear algebra -----------------------------------------------------

Var bmm(const Var& a, const Var& b) {
  PP_REQUIRE_MSG(a->value.ndim() == 3 && b->value.ndim() == 3,
                 "bmm: expected 3-D tensors");
  int B = a->value.dim(0), M = a->value.dim(1), K = a->value.dim(2);
  PP_REQUIRE_MSG(b->value.dim(0) == B && b->value.dim(1) == K,
                 "bmm: shape mismatch " + a->value.shape_str() + " x " +
                     b->value.shape_str());
  int N = b->value.dim(2);
  Tensor out = bmm_forward(a->value, b->value);
  return make_op(std::move(out), {a, b},
                 [B, M, K, N](Node& node) {
                   Node& a = *node.parents[0];
                   Node& b = *node.parents[1];
                   const float* g = node.grad.data();
                   if (a.requires_grad) {
                     Tensor& ga = a.ensure_grad();
                     for (int bi = 0; bi < B; ++bi) {
                       const float* bv = b.value.data() +
                                         static_cast<std::size_t>(bi) * K * N;
                       const float* gp = g + static_cast<std::size_t>(bi) * M * N;
                       float* gav = ga.data() + static_cast<std::size_t>(bi) * M * K;
                       // dA{M,K} += dOut{M,N} * B{K,N}^T
                       sgemm_nt(M, K, N, gp, N, bv, N, gav, K, true);
                     }
                   }
                   if (b.requires_grad) {
                     Tensor& gb = b.ensure_grad();
                     for (int bi = 0; bi < B; ++bi) {
                       const float* av = a.value.data() +
                                         static_cast<std::size_t>(bi) * M * K;
                       const float* gp = g + static_cast<std::size_t>(bi) * M * N;
                       float* gbv = gb.data() + static_cast<std::size_t>(bi) * K * N;
                       // dB{K,N} += A{M,K}^T * dOut{M,N}
                       sgemm_tn(K, N, M, av, K, gp, N, gbv, N, true);
                     }
                   }
                 },
                 "bmm");
}

Var transpose_last2(const Var& x) {
  PP_REQUIRE_MSG(x->value.ndim() == 3, "transpose_last2: expected 3-D tensor");
  int B = x->value.dim(0), M = x->value.dim(1), N = x->value.dim(2);
  Tensor out = transpose_last2_forward(x->value);
  return make_op(std::move(out), {x},
                 [B, M, N](Node& node) {
                   Node& x = *node.parents[0];
                   if (!x.requires_grad) return;
                   Tensor& gx = x.ensure_grad();
                   for (int b = 0; b < B; ++b)
                     for (int m = 0; m < M; ++m)
                       for (int n = 0; n < N; ++n)
                         gx[static_cast<std::size_t>((b * M + m)) * N + n] +=
                             node.grad[static_cast<std::size_t>((b * N + n)) * M + m];
                 },
                 "transpose_last2");
}

Var softmax_lastdim(const Var& x) {
  int L = x->value.dim(x->value.ndim() - 1);
  std::size_t rows = x->value.numel() / static_cast<std::size_t>(L);
  Tensor out = x->value;
  softmax_lastdim_inplace(out);
  return make_op(std::move(out), {x},
                 [L, rows](Node& node) {
                   Node& x = *node.parents[0];
                   if (!x.requires_grad) return;
                   Tensor& gx = x.ensure_grad();
                   for (std::size_t r = 0; r < rows; ++r) {
                     const float* y = node.value.data() + r * static_cast<std::size_t>(L);
                     const float* gy = node.grad.data() + r * static_cast<std::size_t>(L);
                     float* gxr = gx.data() + r * static_cast<std::size_t>(L);
                     double dot = 0;
                     for (int i = 0; i < L; ++i)
                       dot += static_cast<double>(gy[i]) * y[i];
                     for (int i = 0; i < L; ++i)
                       gxr[i] += y[i] * (gy[i] - static_cast<float>(dot));
                   }
                 },
                 "softmax_lastdim");
}

// --- Resampling --------------------------------------------------------------

Var upsample_nearest2(const Var& x) {
  PP_REQUIRE_MSG(x->value.ndim() == 4, "upsample_nearest2 needs 4-D input");
  int N = x->value.dim(0), C = x->value.dim(1), H = x->value.dim(2),
      W = x->value.dim(3);
  Tensor out = upsample_nearest2_forward(x->value);
  return make_op(std::move(out), {x},
                 [N, C, H, W](Node& n) {
                   Node& x = *n.parents[0];
                   if (!x.requires_grad) return;
                   Tensor& gx = x.ensure_grad();
                   for (int i = 0; i < N; ++i)
                     for (int c = 0; c < C; ++c)
                       for (int h = 0; h < H; ++h)
                         for (int w = 0; w < W; ++w)
                           gx.at4(i, c, h, w) +=
                               n.grad.at4(i, c, 2 * h, 2 * w) +
                               n.grad.at4(i, c, 2 * h, 2 * w + 1) +
                               n.grad.at4(i, c, 2 * h + 1, 2 * w) +
                               n.grad.at4(i, c, 2 * h + 1, 2 * w + 1);
                 },
                 "upsample_nearest2");
}

// --- GroupNorm ----------------------------------------------------------------

Var group_norm(const Var& x, const Var& gamma, const Var& beta, int groups,
               float eps) {
  PP_REQUIRE_MSG(x->value.ndim() == 4, "group_norm needs 4-D input");
  int N = x->value.dim(0), C = x->value.dim(1), H = x->value.dim(2),
      W = x->value.dim(3);
  PP_REQUIRE_MSG(groups >= 1 && C % groups == 0,
                 "group_norm: C must be divisible by groups");
  PP_REQUIRE_MSG(gamma->value.ndim() == 1 && gamma->value.dim(0) == C &&
                     beta->value.ndim() == 1 && beta->value.dim(0) == C,
                 "group_norm: affine parameter shape mismatch");
  int cg = C / groups;                       // channels per group
  std::size_t plane = static_cast<std::size_t>(H) * W;
  std::size_t gsize = static_cast<std::size_t>(cg) * plane;  // elems per group

  // Cache statistics for backward.
  auto mean = std::make_shared<std::vector<float>>();
  auto inv_std = std::make_shared<std::vector<float>>();
  Tensor out = group_norm_forward(x->value, gamma->value, beta->value, groups,
                                  eps, mean.get(), inv_std.get());

  return make_op(
      std::move(out), {x, gamma, beta},
      [N, C, groups, cg, plane, gsize, mean, inv_std](Node& node) {
        Node& x = *node.parents[0];
        Node& gamma = *node.parents[1];
        Node& beta = *node.parents[2];
        const float* g = node.grad.data();
        for (int n = 0; n < N; ++n)
          for (int grp = 0; grp < groups; ++grp) {
            std::size_t off =
                (static_cast<std::size_t>(n) * C + static_cast<std::size_t>(grp) * cg) * plane;
            const float* xb = x.value.data() + off;
            const float* gb = g + off;
            float mu = (*mean)[static_cast<std::size_t>(n) * groups + grp];
            float istd = (*inv_std)[static_cast<std::size_t>(n) * groups + grp];
            // Per-channel gamma/beta grads + group sums for input grad.
            double sum_dxhat = 0, sum_dxhat_xhat = 0;
            for (int c = 0; c < cg; ++c) {
              float gm = gamma.value[static_cast<std::size_t>(grp * cg + c)];
              double dg = 0, db = 0;
              for (std::size_t i = 0; i < plane; ++i) {
                float xhat = (xb[c * plane + i] - mu) * istd;
                float go = gb[c * plane + i];
                dg += static_cast<double>(go) * xhat;
                db += go;
                float dxhat = go * gm;
                sum_dxhat += dxhat;
                sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
              }
              if (gamma.requires_grad)
                gamma.ensure_grad()[static_cast<std::size_t>(grp * cg + c)] +=
                    static_cast<float>(dg);
              if (beta.requires_grad)
                beta.ensure_grad()[static_cast<std::size_t>(grp * cg + c)] +=
                    static_cast<float>(db);
            }
            if (x.requires_grad) {
              Tensor& gx = x.ensure_grad();
              float* gxb = gx.data() + off;
              float m = static_cast<float>(gsize);
              for (int c = 0; c < cg; ++c) {
                float gm = gamma.value[static_cast<std::size_t>(grp * cg + c)];
                for (std::size_t i = 0; i < plane; ++i) {
                  float xhat = (xb[c * plane + i] - mu) * istd;
                  float dxhat = gb[c * plane + i] * gm;
                  gxb[c * plane + i] +=
                      istd * (dxhat - static_cast<float>(sum_dxhat) / m -
                              xhat * static_cast<float>(sum_dxhat_xhat) / m);
                }
              }
            }
          }
      },
      "group_norm");
}

// --- Losses -------------------------------------------------------------------

Var mse_loss(const Var& pred, const Var& target) {
  require_same_shape(pred, target, "mse_loss");
  double s = 0;
  for (std::size_t i = 0; i < pred->value.numel(); ++i) {
    double d = static_cast<double>(pred->value[i]) - target->value[i];
    s += d * d;
  }
  Tensor out({1});
  out[0] = static_cast<float>(s / static_cast<double>(pred->value.numel()));
  return make_op(std::move(out), {pred, target},
                 [](Node& n) {
                   Node& p = *n.parents[0];
                   Node& t = *n.parents[1];
                   float scale =
                       2.0f * n.grad[0] / static_cast<float>(p.value.numel());
                   if (p.requires_grad) {
                     Tensor& gp = p.ensure_grad();
                     for (std::size_t i = 0; i < p.value.numel(); ++i)
                       gp[i] += scale * (p.value[i] - t.value[i]);
                   }
                   if (t.requires_grad) {
                     Tensor& gt = t.ensure_grad();
                     for (std::size_t i = 0; i < p.value.numel(); ++i)
                       gt[i] -= scale * (p.value[i] - t.value[i]);
                   }
                 },
                 "mse_loss");
}

Var bce_with_logits(const Var& logits, const Var& target) {
  require_same_shape(logits, target, "bce_with_logits");
  double s = 0;
  for (std::size_t i = 0; i < logits->value.numel(); ++i) {
    double z = logits->value[i];
    double y = target->value[i];
    // log(1 + exp(-|z|)) + max(z, 0) - z*y  (stable formulation)
    s += std::log1p(std::exp(-std::fabs(z))) + std::max(z, 0.0) - z * y;
  }
  Tensor out({1});
  out[0] = static_cast<float>(s / static_cast<double>(logits->value.numel()));
  return make_op(std::move(out), {logits, target},
                 [](Node& n) {
                   Node& z = *n.parents[0];
                   Node& y = *n.parents[1];
                   if (!z.requires_grad) return;
                   Tensor& gz = z.ensure_grad();
                   float scale = n.grad[0] / static_cast<float>(z.value.numel());
                   for (std::size_t i = 0; i < z.value.numel(); ++i) {
                     float sig = 1.0f / (1.0f + std::exp(-z.value[i]));
                     gz[i] += scale * (sig - y.value[i]);
                   }
                 },
                 "bce_with_logits");
}

Var mean(const Var& x) {
  double s = 0;
  for (std::size_t i = 0; i < x->value.numel(); ++i) s += x->value[i];
  Tensor out({1});
  out[0] = static_cast<float>(s / static_cast<double>(x->value.numel()));
  return make_op(std::move(out), {x},
                 [](Node& n) {
                   Node& x = *n.parents[0];
                   if (!x.requires_grad) return;
                   Tensor& gx = x.ensure_grad();
                   float g = n.grad[0] / static_cast<float>(x.value.numel());
                   for (std::size_t i = 0; i < gx.numel(); ++i) gx[i] += g;
                 },
                 "mean");
}

}  // namespace pp::nn
