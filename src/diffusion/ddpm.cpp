#include "diffusion/ddpm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp {

using nn::Tensor;
using nn::Var;

void DdpmConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw ConfigError("DdpmConfig: " + msg);
  };
  if (unet.in_channels != 3)
    fail("unet.in_channels must be 3 (x_t, mask, known)");
  if (unet.out_channels != 1) fail("unet.out_channels must be 1 (epsilon)");
  if (unet.base_channels <= 0) fail("unet.base_channels must be positive");
  // The sinusoid embedding splits time_dim into sin/cos halves and spaces
  // frequencies over half - 1 intervals.
  if (unet.time_dim < 4 || unet.time_dim % 2 != 0)
    fail("unet.time_dim must be even and at least 4");
  if (unet.groups <= 0 || unet.base_channels % unet.groups != 0)
    fail("unet.groups must be positive and divide base_channels");
  if (T <= 0) fail("timesteps T must be positive");
  if (sample_steps < 2 || sample_steps > T)
    fail("sample_steps must be in [2, T]");
  if (!(eta >= 0.0f && eta <= 1.0f)) fail("eta must be in [0, 1]");
}

Ddpm::Ddpm(DdpmConfig cfg, Rng& rng)
    : cfg_((cfg.validate(), cfg)),
      sched_(cfg.cosine ? DiffusionSchedule::cosine(cfg.T)
                        : DiffusionSchedule::linear(cfg.T)),
      net_(cfg.unet, rng) {}

Tensor Ddpm::compose_input(const Tensor& x_t, const Tensor& mask,
                           const Tensor& known) const {
  PP_REQUIRE(x_t.same_shape(mask) && x_t.same_shape(known));
  int N = x_t.dim(0), H = x_t.dim(2), W = x_t.dim(3);
  Tensor in({N, 3, H, W});
  std::size_t plane = static_cast<std::size_t>(H) * W;
  for (int n = 0; n < N; ++n) {
    const float* xs = x_t.data() + static_cast<std::size_t>(n) * plane;
    const float* ms = mask.data() + static_cast<std::size_t>(n) * plane;
    const float* ks = known.data() + static_cast<std::size_t>(n) * plane;
    float* d = in.data() + static_cast<std::size_t>(n) * 3 * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      d[i] = xs[i];
      d[plane + i] = ms[i];
      d[2 * plane + i] = ks[i] * (1.0f - ms[i]);  // known context only
    }
  }
  return in;
}

namespace {

/// Sub-stream ids of a sample's RNG base (see Rng::stream): every noise
/// source a sample consumes has its own stream, so its values depend only on
/// (base seed, purpose) — never on batch grouping or thread interleaving.
enum StreamId : std::uint64_t {
  kLossStream = 0,     ///< timestep + forward noise in diffusion_loss
  kInitStream = 0,     ///< x_T initialization in inpaint
  kRenoiseStream = 1,  ///< RePaint known-region re-noising
  kSigmaStream = 2,    ///< DDIM stochasticity term
};

/// Hands out the next `total` normal draws of `rng` one at a time, filled
/// in bulk into a stack buffer: the values and the stream's final state
/// are those of `total` static_cast<float>(normal()) calls, and nothing is
/// allocated. Take exactly `total` values.
class NoiseChunks {
 public:
  NoiseChunks(Rng& rng, std::size_t total) : rng_(rng), left_(total) {}
  float next() {
    if (at_ == size_) {
      size_ = std::min(left_, kChunk);
      rng_.fill_normal(buf_, size_);
      left_ -= size_;
      at_ = 0;
    }
    return buf_[at_++];
  }

 private:
  static constexpr std::size_t kChunk = 1024;
  Rng& rng_;
  std::size_t left_, size_ = 0, at_ = 0;
  float buf_[kChunk];
};

/// One caller-RNG draw per sample, in batch order. This is the contract that
/// makes sampling batch-split invariant: regrouping the same logical samples
/// into different inpaint()/loss calls consumes the caller's stream
/// identically, so sample i always receives the same base seed.
std::vector<std::uint64_t> sample_bases(int n, Rng& rng) {
  std::vector<std::uint64_t> bases(static_cast<std::size_t>(n));
  for (auto& b : bases) b = rng.draw_seed();
  return bases;
}

}  // namespace

Var Ddpm::diffusion_loss(const Tensor& x0, const Tensor& mask,
                         Rng& rng) const {
  int N = x0.dim(0);
  std::vector<float> t_frac(static_cast<std::size_t>(N));
  Tensor eps = x0.zeros_like();
  Tensor x_t = x0.zeros_like();
  std::size_t per = x0.numel() / static_cast<std::size_t>(N);
  std::vector<std::uint64_t> bases = sample_bases(N, rng);
  parallel_for(0, static_cast<std::size_t>(N), [&](std::size_t n) {
    Rng s = Rng::stream(bases[n], kLossStream);
    int t = s.uniform_int(0, sched_.T - 1);
    t_frac[n] = static_cast<float>(t) / static_cast<float>(sched_.T - 1);
    float sa = sched_.sqrt_ab[static_cast<std::size_t>(t)];
    float sb = sched_.sqrt_1m_ab[static_cast<std::size_t>(t)];
    s.fill_normal(eps.data() + n * per, per);
    for (std::size_t i = 0; i < per; ++i) {
      std::size_t k = n * per + i;
      x_t[k] = sa * x0[k] + sb * eps[k];
    }
  });
  Var pred = net_.forward(compose_input(x_t, mask, x0), t_frac);
  return nn::mse_loss(pred, nn::make_input(eps));
}

float Ddpm::train_step(const Tensor& x0, const Tensor& mask, nn::Adam& opt,
                       Rng& rng) const {
  PP_TRACE_SPAN("ddpm.train_step");
  PP_REQUIRE_MSG(x0.ndim() == 4 && x0.dim(1) == 1, "train_step: x0 {N,1,H,W}");
  PP_REQUIRE(x0.same_shape(mask));
  opt.zero_grad();
  Var loss = diffusion_loss(x0, mask, rng);
  nn::backward(loss);
  opt.step();
  return loss->value[0];
}

float Ddpm::finetune_step(const Tensor& x0, const Tensor& mask,
                          const Tensor& prior_x0, const Tensor& prior_mask,
                          float lambda_prior, nn::Adam& opt, Rng& rng) const {
  PP_TRACE_SPAN("ddpm.finetune_step");
  PP_REQUIRE(lambda_prior >= 0.0f);
  opt.zero_grad();
  Var loss = diffusion_loss(x0, mask, rng);
  if (lambda_prior > 0.0f) {
    Var prior = diffusion_loss(prior_x0, prior_mask, rng);
    loss = nn::add(loss, nn::mul_scalar(prior, lambda_prior));
  }
  nn::backward(loss);
  opt.step();
  return loss->value[0];
}

nn::Tensor Ddpm::inpaint(const Tensor& known, const Tensor& mask,
                         Rng& rng) const {
  return inpaint(known, mask, sample_bases(known.dim(0), rng));
}

SamplerParams Ddpm::resolve_sampler(const SamplerParams& params) const {
  SamplerParams r;
  r.steps = params.steps > 0 ? params.steps : cfg_.sample_steps;
  r.eta = params.eta >= 0.0f ? params.eta : cfg_.eta;
  if (r.steps < 2 || r.steps > cfg_.T)
    throw ConfigError("SamplerParams: steps must be in [2, " +
                      std::to_string(cfg_.T) + "]");
  if (!(r.eta >= 0.0f && r.eta <= 1.0f))
    throw ConfigError("SamplerParams: eta must be in [0, 1]");
  return r;
}

namespace {

/// Strided timestep subsequence T-1 = ts[0] > ts[1] > ... > ts[K-1] = 0.
std::vector<int> strided_schedule(int K, int T) {
  std::vector<int> ts(static_cast<std::size_t>(K));
  for (int i = 0; i < K; ++i)
    ts[static_cast<std::size_t>(i)] = static_cast<int>(
        std::lround((1.0 - static_cast<double>(i) / (K - 1)) * (T - 1)));
  return ts;
}

/// Copies the packed {1,H,W} rows listed in `keep` of `src` into a fresh
/// {keep.size(),1,H,W} tensor (the re-pack primitive).
nn::Tensor pack_rows(const Tensor& src, const std::vector<int>& keep,
                     std::size_t per) {
  Tensor dst({static_cast<int>(keep.size()), 1, src.dim(2), src.dim(3)});
  for (std::size_t w = 0; w < keep.size(); ++w)
    std::copy_n(src.data() + static_cast<std::size_t>(keep[w]) * per, per,
                dst.data() + w * per);
  return dst;
}

}  // namespace

void Ddpm::join(InpaintState& st, const Tensor& known, const Tensor& mask,
                const std::vector<std::uint64_t>& bases,
                const std::vector<std::uint64_t>& tags,
                const SamplerParams& params) const {
  PP_REQUIRE_MSG(known.ndim() == 4 && known.dim(1) == 1,
                 "join: known {N,1,H,W}");
  PP_REQUIRE(known.same_shape(mask));
  const int M = known.dim(0);
  PP_REQUIRE_MSG(bases.size() == static_cast<std::size_t>(M) &&
                     tags.size() == static_cast<std::size_t>(M),
                 "join: one stream base and one tag per sample");
  const SamplerParams p = resolve_sampler(params);
  const int H = known.dim(2), W = known.dim(3);
  if (st.h_ == 0 && st.w_ == 0) {
    st.h_ = H;
    st.w_ = W;
  }
  PP_REQUIRE_MSG(H == st.h_ && W == st.w_,
                 "join: sample shape differs from the running state");
  const std::size_t per = static_cast<std::size_t>(H) * W;
  const int N0 = st.active();
  const std::vector<int> ts = strided_schedule(p.steps, sched_.T);

  // Re-pack with the new rows appended. The latent of each new sample is
  // initialized from its own kInit stream, exactly as a fresh inpaint()
  // would — a join at step boundary b>0 only means the newcomer's first
  // steps run beside older samples, which cannot see it.
  Tensor nx({N0 + M, 1, H, W}), nk({N0 + M, 1, H, W}), nm({N0 + M, 1, H, W});
  if (N0 > 0) {
    std::copy_n(st.x_.data(), static_cast<std::size_t>(N0) * per, nx.data());
    std::copy_n(st.known_.data(), static_cast<std::size_t>(N0) * per,
                nk.data());
    std::copy_n(st.mask_.data(), static_cast<std::size_t>(N0) * per,
                nm.data());
  }
  std::copy_n(known.data(), static_cast<std::size_t>(M) * per,
              nk.data() + static_cast<std::size_t>(N0) * per);
  std::copy_n(mask.data(), static_cast<std::size_t>(M) * per,
              nm.data() + static_cast<std::size_t>(N0) * per);
  parallel_for(0, static_cast<std::size_t>(M), [&](std::size_t i) {
    Rng::stream(bases[i], kInitStream)
        .fill_normal(nx.data() + (static_cast<std::size_t>(N0) + i) * per, per);
  });
  st.x_ = std::move(nx);
  st.known_ = std::move(nk);
  st.mask_ = std::move(nm);

  st.slots_.reserve(static_cast<std::size_t>(N0 + M));
  for (int i = 0; i < M; ++i) {
    InpaintState::Slot s;
    s.tag = tags[static_cast<std::size_t>(i)];
    s.step = 0;
    s.ts = ts;
    s.eta = p.eta;
    s.renoise = Rng::stream(bases[static_cast<std::size_t>(i)], kRenoiseStream);
    s.sigma = Rng::stream(bases[static_cast<std::size_t>(i)], kSigmaStream);
    st.slots_.push_back(std::move(s));
  }
}

std::vector<FinishedSample> Ddpm::step(InpaintState& st) const {
  if (st.empty()) return {};
  PP_TRACE_SPAN("ddpm.inpaint.step");
  static obs::Counter& steps = obs::metrics().counter("ddpm.inpaint.steps");
  steps.add(1);
  const int N = st.active();
  const std::size_t per = static_cast<std::size_t>(st.h_) * st.w_;
  Tensor& x = st.x_;
  const Tensor& known = st.known_;
  const Tensor& mask = st.mask_;

  // Per-sample DDIM coefficients: each sample sits at its own (t, t_prev)
  // pair of its own schedule, with its own eta. The float expressions are
  // exactly the monolithic inpaint loop's, evaluated per row, so a batch of
  // identical schedules is bitwise the old fixed-batch path.
  struct Coef {
    float sa_t, sb_t, sigma, sa_p, dir;
  };
  std::vector<Coef> co(static_cast<std::size_t>(N));
  std::vector<float> t_frac(static_cast<std::size_t>(N));
  for (int n = 0; n < N; ++n) {
    const InpaintState::Slot& s = st.slots_[static_cast<std::size_t>(n)];
    const int K = static_cast<int>(s.ts.size());
    const int t = s.ts[static_cast<std::size_t>(s.step)];
    const int t_prev =
        s.step + 1 < K ? s.ts[static_cast<std::size_t>(s.step + 1)] : -1;
    const float ab_t = sched_.alpha_bar_at(t);
    const float ab_prev = sched_.alpha_bar_at(t_prev);
    Coef& c = co[static_cast<std::size_t>(n)];
    c.sa_t = std::sqrt(ab_t);
    c.sb_t = std::sqrt(1.0f - ab_t);
    c.sigma = 0.0f;
    if (t_prev >= 0 && s.eta > 0.0f) {
      float v = (1.0f - ab_prev) / (1.0f - ab_t) * (1.0f - ab_t / ab_prev);
      c.sigma = s.eta * std::sqrt(std::max(0.0f, v));
    }
    c.sa_p = std::sqrt(ab_prev);
    c.dir = std::sqrt(std::max(0.0f, 1.0f - ab_prev - c.sigma * c.sigma));
    t_frac[static_cast<std::size_t>(n)] =
        static_cast<float>(t) / static_cast<float>(sched_.T - 1);
  }

  // RePaint conditioning: overwrite the known region of x_t with the
  // forward-noised ground truth at each sample's own level t.
  parallel_for(0, static_cast<std::size_t>(N), [&](std::size_t n) {
    const Coef& c = co[n];
    const float* ms = mask.data() + n * per;
    NoiseChunks e(st.slots_[n].renoise,
                  static_cast<std::size_t>(std::count(ms, ms + per, 0.0f)));
    for (std::size_t i = 0; i < per; ++i) {
      std::size_t k = n * per + i;
      if (ms[i] == 0.0f) x[k] = c.sa_t * known[k] + c.sb_t * e.next();
    }
  });

  Tensor in = compose_input(x, mask, known);
  // Graph-free fast path: sampling never backprops, so skip autograd
  // entirely (no Node allocation — asserted by diffusion_test). t_frac is
  // genuinely per-row here; the UNet's time MLP embeds each row separately.
  Tensor eps = net_.infer(in, t_frac);

  // DDIM update with per-sample stochasticity.
  parallel_for(0, static_cast<std::size_t>(N), [&](std::size_t n) {
    const Coef& c = co[n];
    NoiseChunks e(st.slots_[n].sigma, c.sigma > 0.0f ? per : 0);
    for (std::size_t i = 0; i < per; ++i) {
      std::size_t k = n * per + i;
      float x0_hat = (x[k] - c.sb_t * eps[k]) / c.sa_t;
      x0_hat = std::clamp(x0_hat, -1.0f, 1.0f);
      float noise = c.sigma > 0.0f ? c.sigma * e.next() : 0.0f;
      x[k] = c.sa_p * x0_hat + c.dir * eps[k] + noise;
    }
  });

  // Advance cursors; samples whose schedule completed are composited
  // (known pixels kept exactly) and leave; the remainder re-packs.
  std::vector<FinishedSample> out;
  std::vector<int> keep;
  keep.reserve(static_cast<std::size_t>(N));
  for (int n = 0; n < N; ++n) {
    InpaintState::Slot& s = st.slots_[static_cast<std::size_t>(n)];
    if (++s.step < static_cast<int>(s.ts.size())) {
      keep.push_back(n);
      continue;
    }
    FinishedSample f;
    f.tag = s.tag;
    f.x = Tensor({1, 1, st.h_, st.w_});
    const float* xs = x.data() + static_cast<std::size_t>(n) * per;
    const float* ks = known.data() + static_cast<std::size_t>(n) * per;
    const float* ms = mask.data() + static_cast<std::size_t>(n) * per;
    for (std::size_t i = 0; i < per; ++i)
      f.x[i] = ms[i] == 0.0f ? ks[i] : xs[i];
    out.push_back(std::move(f));
  }
  if (!out.empty()) st.compact(keep, per);
  return out;
}

std::size_t Ddpm::leave(InpaintState& st,
                        const std::vector<std::uint64_t>& tags) const {
  if (st.empty() || tags.empty()) return 0;
  const std::size_t per = static_cast<std::size_t>(st.h_) * st.w_;
  std::vector<int> keep;
  keep.reserve(st.slots_.size());
  for (int n = 0; n < st.active(); ++n) {
    const std::uint64_t tag = st.slots_[static_cast<std::size_t>(n)].tag;
    if (std::find(tags.begin(), tags.end(), tag) == tags.end())
      keep.push_back(n);
  }
  const std::size_t removed = st.slots_.size() - keep.size();
  if (removed > 0) st.compact(keep, per);
  return removed;
}

void InpaintState::compact(const std::vector<int>& keep, std::size_t per) {
  std::vector<Slot> slots;
  slots.reserve(keep.size());
  for (int n : keep) slots.push_back(std::move(slots_[static_cast<std::size_t>(n)]));
  slots_ = std::move(slots);
  if (keep.empty()) {
    // Empty state (h_/w_ stay: a later join must match the same shape).
    x_ = known_ = mask_ = nn::Tensor();
    return;
  }
  x_ = pack_rows(x_, keep, per);
  known_ = pack_rows(known_, keep, per);
  mask_ = pack_rows(mask_, keep, per);
}

nn::Tensor Ddpm::inpaint(const Tensor& known, const Tensor& mask,
                         const std::vector<std::uint64_t>& bases,
                         const SamplerParams& params) const {
  PP_TRACE_SPAN("ddpm.inpaint");
  static obs::Counter& samples = obs::metrics().counter("ddpm.inpaint.samples");
  PP_REQUIRE_MSG(known.ndim() == 4 && known.dim(1) == 1,
                 "inpaint: known {N,1,H,W}");
  PP_REQUIRE(known.same_shape(mask));
  const int N = known.dim(0);
  PP_REQUIRE_MSG(bases.size() == static_cast<std::size_t>(N),
                 "inpaint: one stream base per sample");
  samples.add(static_cast<std::uint64_t>(N));
  const std::size_t per = known.numel() / static_cast<std::size_t>(N);

  InpaintState st;
  std::vector<std::uint64_t> tags(static_cast<std::size_t>(N));
  for (int n = 0; n < N; ++n) tags[static_cast<std::size_t>(n)] =
      static_cast<std::uint64_t>(n);
  join(st, known, mask, bases, tags, params);

  Tensor out = known.zeros_like();
  while (!st.empty()) {
    for (const FinishedSample& f : step(st))
      std::copy_n(f.x.data(), per, out.data() + f.tag * per);
  }
  return out;
}

nn::Tensor Ddpm::sample(int n, int height, int width, Rng& rng) const {
  PP_REQUIRE(n >= 1 && height % 4 == 0 && width % 4 == 0);
  Tensor known({n, 1, height, width});
  for (std::size_t i = 0; i < known.numel(); ++i) known[i] = -1.0f;  // empty
  Tensor mask = Tensor::full({n, 1, height, width}, 1.0f);
  return inpaint(known, mask, rng);
}

void Ddpm::save(const std::string& path) const {
  nn::save_parameters(net_.parameters(), path);
}

void Ddpm::load(const std::string& path) {
  nn::load_parameters(net_.parameters(), path);
}

bool Ddpm::try_load(const std::string& path) {
  if (!nn::checkpoint_compatible(net_.parameters(), path)) {
    PP_LOG(Debug) << "ddpm: no compatible checkpoint at " << path;
    return false;
  }
  // The probe can still race a concurrent writer (or miss corruption the
  // header walk cannot see), so a failing load must degrade to "no cache"
  // rather than abort the pipeline. load_parameters stages into temporary
  // buffers before committing, so a failed attempt leaves the weights
  // untouched.
  try {
    nn::load_parameters(net_.parameters(), path);
  } catch (const std::exception& e) {
    PP_LOG(Warn) << "ddpm: discarding unreadable checkpoint " << path << " ("
                 << e.what() << ")";
    return false;
  }
  PP_LOG(Info) << "ddpm: loaded checkpoint " << path;
  return true;
}

}  // namespace pp
