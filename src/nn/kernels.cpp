#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/gemm.hpp"
#include "nn/quant.hpp"
#include "nn/simd_kernels.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::nn {

namespace {

struct ConvDims {
  int N, Ci, H, W, Co, Kh, Kw, Ho, Wo;
};

ConvDims conv_dims(const Tensor& x, const Tensor& w, const Tensor& b,
                   int stride, int pad) {
  PP_REQUIRE_MSG(x.ndim() == 4 && w.ndim() == 4 && b.ndim() == 1,
                 "conv2d: expected x{N,Ci,H,W} w{Co,Ci,Kh,Kw} b{Co}");
  PP_REQUIRE(stride >= 1 && pad >= 0);
  ConvDims d;
  d.N = x.dim(0);
  d.Ci = x.dim(1);
  d.H = x.dim(2);
  d.W = x.dim(3);
  d.Co = w.dim(0);
  d.Kh = w.dim(2);
  d.Kw = w.dim(3);
  PP_REQUIRE_MSG(w.dim(1) == d.Ci, "conv2d: in-channel mismatch");
  PP_REQUIRE_MSG(b.dim(0) == d.Co, "conv2d: bias size mismatch");
  // Checked before dividing: the division truncates toward zero, so a
  // kernel larger than the padded input would otherwise yield Ho = 1.
  PP_REQUIRE_MSG(d.H + 2 * pad >= d.Kh && d.W + 2 * pad >= d.Kw,
                 "conv2d: output collapses to zero size");
  d.Ho = (d.H + 2 * pad - d.Kh) / stride + 1;
  d.Wo = (d.W + 2 * pad - d.Kw) / stride + 1;
  return d;
}

bool resolve_gemm(ConvAlgo algo, const ConvDims& d) {
  switch (algo) {
    case ConvAlgo::kDirect: return false;
    case ConvAlgo::kGemm: return true;
    case ConvAlgo::kAuto:
    default:
      return conv2d_use_gemm(d.Co, d.Ci, d.Kh, d.Kw, d.Ho, d.Wo);
  }
}

bool is_pointwise(const ConvDims& d, int stride, int pad) {
  return d.Kh == 1 && d.Kw == 1 && stride == 1 && pad == 0;
}

// --- Reduced-precision helpers (see nn/quant.hpp) ---------------------------

/// Serial scalar absmax: one fixed accumulation order so the dynamic
/// activation scale is identical for any thread count or batch split.
float absmax_scalar(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

/// Workspace scratch for n int16 values (the arena hands out floats).
std::int16_t* alloc_i16(Workspace& ws, std::size_t n) {
  return reinterpret_cast<std::int16_t*>(ws.alloc((n + 1) / 2));
}

/// The quantized table for this weight when the calling thread's precision
/// tier wants one; null on the fp32 tier or when the weight was never
/// registered (then the caller falls back to fp32 and the miss is
/// counted).
std::shared_ptr<const QuantizedWeight> quant_lookup(const float* wdata,
                                                    Precision prec) {
  if (prec == Precision::kFp32) return nullptr;
  auto qw = detail::find_quantized(wdata);
  if (!qw) detail::note_quant_fallback();
  return qw;
}

// --- Direct (nested-loop) conv paths, kept for small problems ---------------

void conv_forward_direct(const ConvDims& d, int stride, int pad,
                         const float* xv, const float* wv, const float* bv,
                         float* ov) {
  const int Ci = d.Ci, H = d.H, W = d.W, Co = d.Co, Kh = d.Kh, Kw = d.Kw,
            Ho = d.Ho, Wo = d.Wo;
  parallel_for(0, static_cast<std::size_t>(d.N) * Co, [&](std::size_t idx) {
    int n = static_cast<int>(idx) / Co;
    int co = static_cast<int>(idx) % Co;
    float* yplane = ov + ((static_cast<std::size_t>(n) * Co + co) *
                          static_cast<std::size_t>(Ho) * Wo);
    for (int i = 0; i < Ho * Wo; ++i) yplane[i] = bv[co];
    for (int ci = 0; ci < Ci; ++ci) {
      const float* xplane = xv + ((static_cast<std::size_t>(n) * Ci + ci) *
                                  static_cast<std::size_t>(H) * W);
      const float* wk = wv + ((static_cast<std::size_t>(co) * Ci + ci) *
                              static_cast<std::size_t>(Kh) * Kw);
      for (int kh = 0; kh < Kh; ++kh)
        for (int kw = 0; kw < Kw; ++kw) {
          float wval = wk[kh * Kw + kw];
          if (wval == 0.0f) continue;
          for (int oh = 0; oh < Ho; ++oh) {
            int ih = oh * stride + kh - pad;
            if (ih < 0 || ih >= H) continue;
            int ow_lo = 0, ow_hi = Wo;
            while (ow_lo < Wo && ow_lo * stride + kw - pad < 0) ++ow_lo;
            while (ow_hi > ow_lo && (ow_hi - 1) * stride + kw - pad >= W)
              --ow_hi;
            const float* xrow = xplane + static_cast<std::size_t>(ih) * W;
            float* yrow = yplane + static_cast<std::size_t>(oh) * Wo;
            for (int ow = ow_lo; ow < ow_hi; ++ow)
              yrow[ow] += wval * xrow[ow * stride + kw - pad];
          }
        }
    }
  });
}

void conv_grad_weight_direct(const ConvDims& d, int stride, int pad,
                             const float* xv, const float* g, float* gw) {
  const int N = d.N, Ci = d.Ci, H = d.H, W = d.W, Co = d.Co, Kh = d.Kh,
            Kw = d.Kw, Ho = d.Ho, Wo = d.Wo;
  parallel_for(0, static_cast<std::size_t>(Co), [&](std::size_t co_idx) {
    int co = static_cast<int>(co_idx);
    for (int n = 0; n < N; ++n) {
      const float* gp = g + ((static_cast<std::size_t>(n) * Co + co) *
                             static_cast<std::size_t>(Ho) * Wo);
      for (int ci = 0; ci < Ci; ++ci) {
        const float* xplane = xv + ((static_cast<std::size_t>(n) * Ci + ci) *
                                    static_cast<std::size_t>(H) * W);
        float* gwk = gw + ((static_cast<std::size_t>(co) * Ci + ci) *
                           static_cast<std::size_t>(Kh) * Kw);
        for (int kh = 0; kh < Kh; ++kh)
          for (int kw = 0; kw < Kw; ++kw) {
            double s = 0;
            for (int oh = 0; oh < Ho; ++oh) {
              int ih = oh * stride + kh - pad;
              if (ih < 0 || ih >= H) continue;
              int ow_lo = 0, ow_hi = Wo;
              while (ow_lo < Wo && ow_lo * stride + kw - pad < 0) ++ow_lo;
              while (ow_hi > ow_lo && (ow_hi - 1) * stride + kw - pad >= W)
                --ow_hi;
              const float* xrow = xplane + static_cast<std::size_t>(ih) * W;
              const float* grow = gp + static_cast<std::size_t>(oh) * Wo;
              for (int ow = ow_lo; ow < ow_hi; ++ow)
                s += static_cast<double>(grow[ow]) *
                     xrow[ow * stride + kw - pad];
            }
            gwk[kh * Kw + kw] += static_cast<float>(s);
          }
      }
    }
  });
}

void conv_grad_input_direct(const ConvDims& d, int stride, int pad,
                            const float* wv, const float* g, float* gx) {
  const int N = d.N, Ci = d.Ci, H = d.H, W = d.W, Co = d.Co, Kh = d.Kh,
            Kw = d.Kw, Ho = d.Ho, Wo = d.Wo;
  parallel_for(0, static_cast<std::size_t>(N), [&](std::size_t n_idx) {
    int n = static_cast<int>(n_idx);
    for (int co = 0; co < Co; ++co) {
      const float* gp = g + ((static_cast<std::size_t>(n) * Co + co) *
                             static_cast<std::size_t>(Ho) * Wo);
      for (int ci = 0; ci < Ci; ++ci) {
        float* gxplane = gx + ((static_cast<std::size_t>(n) * Ci + ci) *
                               static_cast<std::size_t>(H) * W);
        const float* wk = wv + ((static_cast<std::size_t>(co) * Ci + ci) *
                                static_cast<std::size_t>(Kh) * Kw);
        for (int kh = 0; kh < Kh; ++kh)
          for (int kw = 0; kw < Kw; ++kw) {
            float wval = wk[kh * Kw + kw];
            if (wval == 0.0f) continue;
            for (int oh = 0; oh < Ho; ++oh) {
              int ih = oh * stride + kh - pad;
              if (ih < 0 || ih >= H) continue;
              int ow_lo = 0, ow_hi = Wo;
              while (ow_lo < Wo && ow_lo * stride + kw - pad < 0) ++ow_lo;
              while (ow_hi > ow_lo && (ow_hi - 1) * stride + kw - pad >= W)
                --ow_hi;
              float* gxrow = gxplane + static_cast<std::size_t>(ih) * W;
              const float* grow = gp + static_cast<std::size_t>(oh) * Wo;
              for (int ow = ow_lo; ow < ow_hi; ++ow)
                gxrow[ow * stride + kw - pad] += wval * grow[ow];
            }
          }
      }
    }
  });
}

}  // namespace

// Elementwise loops below this many elements run serially; above it they
// split across the pool (no-op on single-core hosts where the pool is 1).
constexpr std::size_t kEltwiseParallelMin = 1 << 15;

void eltwise_parallel(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n >= kEltwiseParallelMin && parallel_thread_count() > 1) {
    parallel_for_chunks(0, n, fn);
  } else {
    fn(0, n);
  }
}

bool conv2d_use_gemm(int co, int ci, int kh, int kw, int ho, int wo) {
  const std::size_t p = static_cast<std::size_t>(ho) * wo;
  const std::size_t muls = static_cast<std::size_t>(co) * ci * kh * kw * p;
  return p >= 16 && muls >= 8192;
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      int stride, int pad, ConvAlgo algo) {
  static obs::Counter& gemm_dispatches =
      obs::metrics().counter("nn.conv2d.dispatch.gemm");
  static obs::Counter& implicit_dispatches =
      obs::metrics().counter("nn.conv2d.dispatch.implicit");
  static obs::Counter& direct_dispatches =
      obs::metrics().counter("nn.conv2d.dispatch.direct");
  const ConvDims d = conv_dims(x, w, b, stride, pad);
  Tensor out({d.N, d.Co, d.Ho, d.Wo});
  if (!resolve_gemm(algo, d)) {
    PP_TRACE_SPAN("nn.conv2d.direct");
    direct_dispatches.add(1);
    conv_forward_direct(d, stride, pad, x.data(), w.data(), b.data(),
                        out.data());
    return out;
  }
  const Precision prec = active_precision();
  auto qw = quant_lookup(w.data(), prec);
  const bool int8 = qw && prec == Precision::kInt8;
  // fp32 and bf16 stride-1 3x3 convs skip im2col where the ISA has the
  // kernel (AVX-512): the same GEMM with B read straight from the plane,
  // so the same bits and no col buffer. int8 quantizes the col panel, so
  // it keeps im2col.
  const bool implicit = !int8 && d.Kh == 3 && d.Kw == 3 && stride == 1 &&
                        pad == 1 && detail::active_kernels().conv3x3_s1;
  PP_TRACE_SPAN(implicit ? "nn.conv2d.implicit" : "nn.conv2d.gemm");
  (implicit ? implicit_dispatches : gemm_dispatches).add(1);
  const int K2 = d.Ci * d.Kh * d.Kw;
  const int P = d.Ho * d.Wo;
  const bool pointwise = is_pointwise(d, stride, pad);
  Workspace& ws = Workspace::tls();
  WorkspaceScope scope(ws);
  float* col = pointwise || implicit
                   ? nullptr
                   : ws.alloc(static_cast<std::size_t>(K2) * P);
  // Bias (one value per output-channel row) runs as a fused epilogue on
  // each row chunk right after the GEMM writes it.
  GemmEpilogue epi;
  epi.bias = b.data();
  if (int8) {
    // C{Co,P} = Wq{Co,K2} · Colq{K2,P} over int8-range int16 lanes:
    // weights were quantized per output channel at load time, activations
    // are quantized per tensor here with a dynamic scale. The quantized
    // panel stays in im2col's natural {K2, P} order — sgemm_i8_nt
    // pair-packs it directly (I8Layout::kKN), no transpose pass. The
    // epilogue dequantizes each row by scales[co]·a_scale, then adds bias.
    std::int16_t* qpanel = alloc_i16(ws, static_cast<std::size_t>(K2) * P);
    epi.dequant_row = qw->scales.data();
    for (int n = 0; n < d.N; ++n) {
      const float* xn =
          x.data() + static_cast<std::size_t>(n) * d.Ci * d.H * d.W;
      const float* colp = xn;
      if (!pointwise) {
        im2col(xn, d.Ci, d.H, d.W, d.Kh, d.Kw, stride, pad, d.Ho, d.Wo, col);
        colp = col;
      }
      const float amax =
          absmax_scalar(colp, static_cast<std::size_t>(K2) * P);
      const float inv = amax == 0.0f ? 0.0f : 127.0f / amax;
      detail::active_kernels().quantize_s8(colp, inv, qpanel,
                                           static_cast<std::size_t>(K2) * P);
      epi.dequant_scale = amax / 127.0f;
      float* on = out.data() + static_cast<std::size_t>(n) * d.Co * P;
      sgemm_i8_nt(d.Co, P, K2, qw->q16.data(), K2, qpanel, P, on, P, &epi,
                  I8Layout::kKN);
    }
    return out;
  }
  const float* wp = w.data();
  if (qw && prec == Precision::kBf16) {
    // bf16 tier: widen the stored bf16 weights back to fp32 (exact) once
    // per call and run the normal fp32 kernels on the rounded values.
    float* wf = ws.alloc(static_cast<std::size_t>(d.Co) * K2);
    detail::active_kernels().widen_bf16(qw->bf16.data(), wf,
                                        static_cast<std::size_t>(d.Co) * K2);
    wp = wf;
  }
  for (int n = 0; n < d.N; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * d.Ci * d.H * d.W;
    float* on = out.data() + static_cast<std::size_t>(n) * d.Co * P;
    if (implicit) {
      sconv3x3_s1(d.Co, d.Ci, d.H, d.W, wp, xn, on, &epi);
      continue;
    }
    const float* colp = xn;
    if (!pointwise) {
      im2col(xn, d.Ci, d.H, d.W, d.Kh, d.Kw, stride, pad, d.Ho, d.Wo, col);
      colp = col;
    }
    sgemm_nn(d.Co, P, K2, wp, K2, colp, P, on, P, /*accumulate=*/false,
             &epi);
  }
  return out;
}

void conv2d_grad_bias(const Tensor& gout, Tensor& gb) {
  const int N = gout.dim(0), Co = gout.dim(1);
  const std::size_t plane =
      static_cast<std::size_t>(gout.dim(2)) * gout.dim(3);
  for (int n = 0; n < N; ++n)
    for (int co = 0; co < Co; ++co) {
      const float* gp =
          gout.data() + (static_cast<std::size_t>(n) * Co + co) * plane;
      double s = 0;
      for (std::size_t i = 0; i < plane; ++i) s += gp[i];
      gb[static_cast<std::size_t>(co)] += static_cast<float>(s);
    }
}

void conv2d_grad_weight(const Tensor& x, const Tensor& gout, Tensor& gw,
                        int stride, int pad, ConvAlgo algo) {
  ConvDims d;
  d.N = x.dim(0); d.Ci = x.dim(1); d.H = x.dim(2); d.W = x.dim(3);
  d.Co = gout.dim(1); d.Kh = gw.dim(2); d.Kw = gw.dim(3);
  d.Ho = gout.dim(2); d.Wo = gout.dim(3);
  if (!resolve_gemm(algo, d)) {
    conv_grad_weight_direct(d, stride, pad, x.data(), gout.data(), gw.data());
    return;
  }
  const int K2 = d.Ci * d.Kh * d.Kw;
  const int P = d.Ho * d.Wo;
  const bool pointwise = is_pointwise(d, stride, pad);
  Workspace& ws = Workspace::tls();
  WorkspaceScope scope(ws);
  float* col = pointwise ? nullptr
                         : ws.alloc(static_cast<std::size_t>(K2) * P);
  for (int n = 0; n < d.N; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * d.Ci * d.H * d.W;
    const float* colp = xn;
    if (!pointwise) {
      im2col(xn, d.Ci, d.H, d.W, d.Kh, d.Kw, stride, pad, d.Ho, d.Wo, col);
      colp = col;
    }
    const float* gn = gout.data() + static_cast<std::size_t>(n) * d.Co * P;
    sgemm_nt(d.Co, K2, P, gn, P, colp, P, gw.data(), K2, /*accumulate=*/true);
  }
}

void conv2d_grad_input(const Tensor& w, const Tensor& gout, Tensor& gx,
                       int stride, int pad, ConvAlgo algo) {
  ConvDims d;
  d.N = gx.dim(0); d.Ci = gx.dim(1); d.H = gx.dim(2); d.W = gx.dim(3);
  d.Co = w.dim(0); d.Kh = w.dim(2); d.Kw = w.dim(3);
  d.Ho = gout.dim(2); d.Wo = gout.dim(3);
  if (!resolve_gemm(algo, d)) {
    conv_grad_input_direct(d, stride, pad, w.data(), gout.data(), gx.data());
    return;
  }
  const int K2 = d.Ci * d.Kh * d.Kw;
  const int P = d.Ho * d.Wo;
  const bool pointwise = is_pointwise(d, stride, pad);
  Workspace& ws = Workspace::tls();
  WorkspaceScope scope(ws);
  float* colg = pointwise ? nullptr
                          : ws.alloc(static_cast<std::size_t>(K2) * P);
  for (int n = 0; n < d.N; ++n) {
    const float* gn = gout.data() + static_cast<std::size_t>(n) * d.Co * P;
    float* gxn = gx.data() + static_cast<std::size_t>(n) * d.Ci * d.H * d.W;
    if (pointwise) {
      // col grad IS the input grad layout: accumulate straight into gx.
      sgemm_tn(K2, P, d.Co, w.data(), K2, gn, P, gxn, P, /*accumulate=*/true);
    } else {
      sgemm_tn(K2, P, d.Co, w.data(), K2, gn, P, colg, P, /*accumulate=*/false);
      col2im_add(colg, d.Ci, d.H, d.W, d.Kh, d.Kw, stride, pad, d.Ho, d.Wo,
                 gxn);
    }
  }
}

Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b) {
  PP_REQUIRE_MSG(x.ndim() == 2 && w.ndim() == 2 && b.ndim() == 1,
                 "linear: expected x{N,I} w{O,I} b{O}");
  const int N = x.dim(0), I = x.dim(1), O = w.dim(0);
  PP_REQUIRE_MSG(w.dim(1) == I && b.dim(0) == O, "linear: dimension mismatch");
  Tensor out({N, O});
  GemmEpilogue epi;
  epi.bias_per_col = b.data();
  const Precision prec = active_precision();
  auto qw = quant_lookup(w.data(), prec);
  if (qw && prec == Precision::kInt8) {
    // out{N,O} = Xq{N,I} · Wq{O,I}^T; column o dequantizes by
    // scales[o]·a_scale, precombined below so the epilogue is one mul.
    Workspace& ws = Workspace::tls();
    WorkspaceScope scope(ws);
    const std::size_t total = static_cast<std::size_t>(N) * I;
    std::int16_t* qx = alloc_i16(ws, total);
    const float amax = absmax_scalar(x.data(), total);
    const float inv = amax == 0.0f ? 0.0f : 127.0f / amax;
    detail::active_kernels().quantize_s8(x.data(), inv, qx, total);
    const float a_scale = amax / 127.0f;
    float* deq = ws.alloc(static_cast<std::size_t>(O));
    for (int o = 0; o < O; ++o)
      deq[o] = qw->scales[static_cast<std::size_t>(o)] * a_scale;
    epi.dequant_col = deq;
    sgemm_i8_nt(N, O, I, qx, I, qw->q16.data(), I, out.data(), O, &epi);
    return out;
  }
  if (qw && prec == Precision::kBf16) {
    Workspace& ws = Workspace::tls();
    WorkspaceScope scope(ws);
    float* wf = ws.alloc(static_cast<std::size_t>(O) * I);
    detail::active_kernels().widen_bf16(qw->bf16.data(), wf,
                                        static_cast<std::size_t>(O) * I);
    sgemm_nt(N, O, I, x.data(), I, wf, I, out.data(), O,
             /*accumulate=*/false, &epi);
    return out;
  }
  sgemm_nt(N, O, I, x.data(), I, w.data(), I, out.data(), O,
           /*accumulate=*/false, &epi);
  return out;
}

Tensor group_norm_forward(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, int groups, float eps,
                          std::vector<float>* mean,
                          std::vector<float>* inv_std) {
  PP_REQUIRE_MSG(x.ndim() == 4, "group_norm needs 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  PP_REQUIRE_MSG(groups >= 1 && C % groups == 0,
                 "group_norm: C must be divisible by groups");
  PP_REQUIRE_MSG(gamma.ndim() == 1 && gamma.dim(0) == C && beta.ndim() == 1 &&
                     beta.dim(0) == C,
                 "group_norm: affine parameter shape mismatch");
  const int cg = C / groups;
  const std::size_t plane = static_cast<std::size_t>(H) * W;
  const std::size_t gsize = static_cast<std::size_t>(cg) * plane;
  if (mean) mean->assign(static_cast<std::size_t>(N) * groups, 0.0f);
  if (inv_std) inv_std->assign(static_cast<std::size_t>(N) * groups, 0.0f);

  Tensor out = x.zeros_like();
  // Serial per (sample, group): the reduce has one fixed accumulation
  // order, so statistics are independent of thread count.
  const detail::KernelTable& kt = detail::active_kernels();
  for (int n = 0; n < N; ++n)
    for (int g = 0; g < groups; ++g) {
      const float* base =
          x.data() + (static_cast<std::size_t>(n) * C +
                      static_cast<std::size_t>(g) * cg) * plane;
      double s = 0, s2 = 0;
      kt.reduce_sum_sumsq(base, gsize, &s, &s2);
      double mu = s / static_cast<double>(gsize);
      double var = s2 / static_cast<double>(gsize) - mu * mu;
      float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      if (mean) (*mean)[static_cast<std::size_t>(n) * groups + g] = static_cast<float>(mu);
      if (inv_std) (*inv_std)[static_cast<std::size_t>(n) * groups + g] = istd;
      float* o = out.data() + (static_cast<std::size_t>(n) * C +
                               static_cast<std::size_t>(g) * cg) * plane;
      for (int c = 0; c < cg; ++c) {
        float gm = gamma[static_cast<std::size_t>(g * cg + c)];
        float bt = beta[static_cast<std::size_t>(g * cg + c)];
        kt.normalize_affine(base + static_cast<std::size_t>(c) * plane,
                            o + static_cast<std::size_t>(c) * plane, plane,
                            static_cast<float>(mu), istd, gm, bt);
      }
    }
  return out;
}

Tensor silu_forward(const Tensor& x) {
  Tensor out = x.zeros_like();
  const float* xv = x.data();
  float* ov = out.data();
  const detail::KernelTable& kt = detail::active_kernels();
  eltwise_parallel(x.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.silu(xv + lo, ov + lo, hi - lo);
  });
  return out;
}

void silu_inplace(Tensor& x) {
  float* xv = x.data();
  const detail::KernelTable& kt = detail::active_kernels();
  eltwise_parallel(x.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.silu(xv + lo, xv + lo, hi - lo);
  });
}

void add_inplace(Tensor& a, const Tensor& b) {
  PP_REQUIRE_MSG(a.same_shape(b), "add_inplace: shape mismatch");
  float* av = a.data();
  const float* bv = b.data();
  const detail::KernelTable& kt = detail::active_kernels();
  eltwise_parallel(a.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.add(av + lo, bv + lo, hi - lo);
  });
}

void scale_inplace(Tensor& a, float s) {
  float* av = a.data();
  const detail::KernelTable& kt = detail::active_kernels();
  eltwise_parallel(a.numel(), [&](std::size_t lo, std::size_t hi) {
    kt.scale(av + lo, s, hi - lo);
  });
}

void add_channel_bias_inplace(Tensor& x, const Tensor& bias) {
  PP_REQUIRE_MSG(x.ndim() == 4, "add_channel_bias needs 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const bool per_sample = bias.ndim() == 2;
  if (per_sample) {
    PP_REQUIRE_MSG(bias.dim(0) == N && bias.dim(1) == C,
                   "add_channel_bias: bias {N,C} mismatch");
  } else {
    PP_REQUIRE_MSG(bias.ndim() == 1 && bias.dim(0) == C,
                   "add_channel_bias: bias {C} mismatch");
  }
  const std::size_t plane = static_cast<std::size_t>(H) * W;
  const detail::KernelTable& kt = detail::active_kernels();
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      float b = per_sample ? bias.at2(n, c) : bias[static_cast<std::size_t>(c)];
      float* p = x.data() + (static_cast<std::size_t>(n) * C + c) * plane;
      kt.add_const(p, b, plane);
    }
}

Tensor concat_channels_forward(const Tensor& a, const Tensor& b) {
  PP_REQUIRE_MSG(a.ndim() == 4 && b.ndim() == 4,
                 "concat_channels needs 4-D tensors");
  const auto& sa = a.shape();
  const auto& sb = b.shape();
  PP_REQUIRE_MSG(sa[0] == sb[0] && sa[2] == sb[2] && sa[3] == sb[3],
                 "concat_channels: N/H/W mismatch");
  const int N = sa[0], Ca = sa[1], Cb = sb[1], H = sa[2], W = sa[3];
  Tensor out({N, Ca + Cb, H, W});
  const std::size_t plane = static_cast<std::size_t>(H) * W;
  for (int n = 0; n < N; ++n) {
    std::copy_n(a.data() + static_cast<std::size_t>(n) * Ca * plane,
                static_cast<std::size_t>(Ca) * plane,
                out.data() + static_cast<std::size_t>(n) * (Ca + Cb) * plane);
    std::copy_n(b.data() + static_cast<std::size_t>(n) * Cb * plane,
                static_cast<std::size_t>(Cb) * plane,
                out.data() +
                    (static_cast<std::size_t>(n) * (Ca + Cb) + Ca) * plane);
  }
  return out;
}

Tensor upsample_nearest2_forward(const Tensor& x) {
  PP_REQUIRE_MSG(x.ndim() == 4, "upsample_nearest2 needs 4-D input");
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  Tensor out({N, C, 2 * H, 2 * W});
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      const float* xp = x.data() + (static_cast<std::size_t>(n) * C + c) *
                                       static_cast<std::size_t>(H) * W;
      float* op = out.data() + (static_cast<std::size_t>(n) * C + c) *
                                   static_cast<std::size_t>(4) * H * W;
      for (int h = 0; h < H; ++h) {
        const float* xrow = xp + static_cast<std::size_t>(h) * W;
        float* orow = op + static_cast<std::size_t>(2 * h) * 2 * W;
        for (int w = 0; w < W; ++w) {
          orow[2 * w] = xrow[w];
          orow[2 * w + 1] = xrow[w];
        }
        std::memcpy(orow + static_cast<std::size_t>(2) * W, orow,
                    sizeof(float) * static_cast<std::size_t>(2) * W);
      }
    }
  return out;
}

Tensor bmm_forward(const Tensor& a, const Tensor& b) {
  PP_REQUIRE_MSG(a.ndim() == 3 && b.ndim() == 3, "bmm: expected 3-D tensors");
  const int B = a.dim(0), M = a.dim(1), K = a.dim(2);
  PP_REQUIRE_MSG(b.dim(0) == B && b.dim(1) == K,
                 "bmm: shape mismatch " + a.shape_str() + " x " +
                     b.shape_str());
  const int N = b.dim(2);
  Tensor out({B, M, N});
  for (int bi = 0; bi < B; ++bi) {
    const float* av = a.data() + static_cast<std::size_t>(bi) * M * K;
    const float* bv = b.data() + static_cast<std::size_t>(bi) * K * N;
    float* ov = out.data() + static_cast<std::size_t>(bi) * M * N;
    sgemm_nn(M, N, K, av, K, bv, N, ov, N, /*accumulate=*/false);
  }
  return out;
}

Tensor transpose_last2_forward(const Tensor& x) {
  PP_REQUIRE_MSG(x.ndim() == 3, "transpose_last2: expected 3-D tensor");
  const int B = x.dim(0), M = x.dim(1), N = x.dim(2);
  Tensor out({B, N, M});
  for (int b = 0; b < B; ++b)
    for (int m = 0; m < M; ++m)
      for (int n = 0; n < N; ++n)
        out[static_cast<std::size_t>((b * N + n)) * M + m] =
            x[static_cast<std::size_t>((b * M + m)) * N + n];
  return out;
}

void softmax_lastdim_inplace(Tensor& x) {
  const int L = x.dim(x.ndim() - 1);
  const std::size_t rows = x.numel() / static_cast<std::size_t>(L);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * static_cast<std::size_t>(L);
    float mx = row[0];
    for (int i = 1; i < L; ++i) mx = std::max(mx, row[i]);
    double denom = 0;
    for (int i = 0; i < L; ++i) {
      row[i] = std::exp(row[i] - mx);
      denom += row[i];
    }
    for (int i = 0; i < L; ++i)
      row[i] = static_cast<float>(row[i] / denom);
  }
}

}  // namespace pp::nn
