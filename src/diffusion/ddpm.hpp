// Denoising diffusion probabilistic model with inpainting (Sec. II-A and
// IV-C of the paper).
//
// Training: epsilon-prediction MSE (Eq. 6) on images in [-1,1], with the
// SD-inpaint input convention (noisy image + mask + masked image), so the
// model is trained as an inpainting model from the start. Masks are supplied
// by the caller: random boxes during pretraining, the predefined PatternPaint
// mask sets during generation.
//
// Sampling: strided DDIM-style ancestral sampling with RePaint-style known-
// region clamping (Eq. 8): at every step the known region is replaced by the
// appropriately-noised ground truth, so generation is conditioned on legal
// neighbouring layout.
//
// Finetuning (Sec. IV-B, Eq. 7): DreamBooth-style few-shot adaptation with a
// prior-preservation term computed on samples drawn from the pretrained
// model before finetuning starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"
#include "nn/optimizer.hpp"

namespace pp {

struct DdpmConfig {
  UNetConfig unet;
  int T = 300;            ///< training timesteps
  bool cosine = false;    ///< cosine vs linear beta schedule
  int sample_steps = 18;  ///< strided steps at inference
  float eta = 0.4f;       ///< DDIM stochasticity (0 = deterministic)

  /// Throws pp::ConfigError on any out-of-domain value (zero timesteps,
  /// sample_steps outside [2, T], eta outside [0, 1], non-positive UNet
  /// widths, an odd time_dim or one below 4, ...) so misconfiguration fails
  /// at the API boundary instead of crashing deep inside the UNet.
  void validate() const;
};

/// Per-request sampler schedule: continuous batching lets every request
/// trade quality for latency, so the strided step count and DDIM
/// stochasticity are per-sample knobs rather than model constants.
struct SamplerParams {
  int steps = 0;      ///< strided sampling steps; 0 = DdpmConfig::sample_steps
  float eta = -1.0f;  ///< DDIM stochasticity in [0,1]; < 0 = DdpmConfig::eta
};

/// A sample that completed its schedule inside Ddpm::step: `tag` is the
/// caller's identifier from join(), `x` the composited {1,1,H,W} result.
struct FinishedSample {
  std::uint64_t tag = 0;
  nn::Tensor x;
};

/// Resumable per-sample inpainting state for step-level continuous
/// batching: each packed row carries its own latent, RNG streams, timestep
/// schedule and step cursor, so samples join at any step boundary, leave
/// the moment they finish (or are cancelled) and the tensor is re-packed
/// in between — all without perturbing any other sample's bits. Opaque:
/// mutate only through Ddpm::join / Ddpm::step / Ddpm::leave.
class InpaintState {
 public:
  bool empty() const { return slots_.empty(); }
  int active() const { return static_cast<int>(slots_.size()); }
  int height() const { return h_; }
  int width() const { return w_; }

 private:
  friend class Ddpm;
  /// Re-pack: keeps the listed row indices (in order), drops the rest.
  void compact(const std::vector<int>& keep, std::size_t per);
  struct Slot {
    std::uint64_t tag = 0;
    int step = 0;         ///< next schedule index to execute
    std::vector<int> ts;  ///< per-sample strided timestep subsequence
    float eta = 0.0f;
    Rng renoise;  ///< RePaint known-region re-noising stream
    Rng sigma;    ///< DDIM stochasticity stream
  };
  std::vector<Slot> slots_;      ///< one per packed row, row order
  nn::Tensor x_, known_, mask_;  ///< packed {N,1,H,W}, N == slots_.size()
  int h_ = 0, w_ = 0;
};

class Ddpm {
 public:
  Ddpm(DdpmConfig cfg, Rng& rng);

  const DdpmConfig& config() const { return cfg_; }
  const DiffusionSchedule& schedule() const { return sched_; }
  UNet& net() { return net_; }
  std::vector<nn::Var> parameters() const { return net_.parameters(); }

  /// One optimization step of the epsilon-prediction objective on a batch
  /// x0 {N,1,H,W} in [-1,1] with conditioning masks {N,1,H,W} in {0,1}
  /// (1 = region the model must reconstruct). Returns the loss value.
  float train_step(const nn::Tensor& x0, const nn::Tensor& mask,
                   nn::Adam& opt, Rng& rng) const;

  /// DreamBooth-style step: loss(starter batch) + lambda * loss(prior
  /// batch), sharing one optimizer step. Returns the combined loss.
  float finetune_step(const nn::Tensor& x0, const nn::Tensor& mask,
                      const nn::Tensor& prior_x0, const nn::Tensor& prior_mask,
                      float lambda_prior, nn::Adam& opt, Rng& rng) const;

  /// Inpaints: regenerates mask==1 pixels of `known` ({N,1,H,W} in [-1,1],
  /// mask {N,1,H,W}); returns the completed batch in [-1,1].
  ///
  /// RNG contract: consumes exactly one draw from `rng` per sample (a
  /// per-sample stream base; all noise then comes from Rng::stream-derived
  /// streams), so for a fixed caller-RNG state the i-th logical sample is
  /// bitwise identical however the samples are split into inpaint calls
  /// (1xN == Nx1) and whatever PP_THREADS is.
  nn::Tensor inpaint(const nn::Tensor& known, const nn::Tensor& mask,
                     Rng& rng) const;

  /// Explicit-stream variant: bases[i] (one entry per sample) is sample i's
  /// RNG stream base, exactly what the Rng overload derives via one
  /// draw_seed() per sample. Because each sample's noise is a pure function
  /// of its base, concatenating the bases of several logical requests into
  /// one call yields bitwise the same per-sample output as running each
  /// request alone. `params` overrides sample_steps / eta for every sample
  /// in the call. Implemented on the step-level API below, so a monolithic
  /// call is bitwise identical to the same samples run through
  /// join()/step() under any interleaving with other samples.
  nn::Tensor inpaint(const nn::Tensor& known, const nn::Tensor& mask,
                     const std::vector<std::uint64_t>& bases,
                     const SamplerParams& params = {}) const;

  /// --- Step-level (continuous-batching) API -------------------------------
  ///
  /// join/step/leave decompose inpaint() into resumable per-sample steps.
  /// Because every sample's noise comes only from its own stream base and
  /// its own step index (never from batch composition), any interleaving of
  /// joins and leaves produces per-sample output bitwise identical to
  /// running each sample alone through inpaint() with the same params.

  /// Appends samples to `st`: known/mask {M,1,H,W}, one stream base and one
  /// caller tag per sample (tags must be unique among in-flight samples).
  /// Initializes each new latent row from its kInit stream. Validates
  /// `params` against the schedule (throws pp::ConfigError out of domain).
  void join(InpaintState& st, const nn::Tensor& known, const nn::Tensor& mask,
            const std::vector<std::uint64_t>& bases,
            const std::vector<std::uint64_t>& tags,
            const SamplerParams& params = {}) const;

  /// Runs ONE denoising step for every active sample (one UNet batch with
  /// per-sample timestep conditioning and per-sample DDIM coefficients).
  /// Samples whose schedule completes are composited (known pixels kept
  /// exactly), removed from the state — the remaining rows re-pack — and
  /// returned. No-op on an empty state.
  std::vector<FinishedSample> step(InpaintState& st) const;

  /// Removes the samples whose tags are listed (cancellation / deadline
  /// expiry) without producing output; remaining rows re-pack. Returns how
  /// many samples actually left.
  std::size_t leave(InpaintState& st,
                    const std::vector<std::uint64_t>& tags) const;

  /// Resolves `params` against the config (0 / negative = model default)
  /// and validates domains; throws pp::ConfigError on steps outside [2, T]
  /// or eta outside [0, 1].
  SamplerParams resolve_sampler(const SamplerParams& params) const;

  /// Unconditional generation of n images ({n,1,H,W}): inpainting with a
  /// full mask and a blank known image.
  nn::Tensor sample(int n, int height, int width, Rng& rng) const;

  /// Checkpointing of the underlying UNet.
  void save(const std::string& path) const;
  void load(const std::string& path);
  bool try_load(const std::string& path);

 private:
  /// Builds the UNet input batch: concat(x_t, mask, known*(1-mask)).
  nn::Tensor compose_input(const nn::Tensor& x_t, const nn::Tensor& mask,
                           const nn::Tensor& known) const;
  /// Epsilon-prediction MSE (Eq. 6) of the UNet on x0 noised at one random
  /// timestep per sample; the graph reaches every parameter.
  nn::Var diffusion_loss(const nn::Tensor& x0, const nn::Tensor& mask,
                         Rng& rng) const;

  DdpmConfig cfg_;
  DiffusionSchedule sched_;
  UNet net_;
};

}  // namespace pp
