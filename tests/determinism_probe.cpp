// Prints a canonical digest of a miniature (untrained) generation run.
//
// The determinism_pp_threads ctest runs this binary twice — PP_THREADS=1
// and PP_THREADS=8 — and requires byte-identical output: the pool width
// must never leak into generated patterns (per-sample RNG streams, ordered
// merge). Any stdout difference is a determinism regression.
//
// A second round pushes coalesced requests through the GenerationServer so
// the serving layer's micro-batching is held to the same bar: batched
// output must be a pure function of each request's seed, bitwise invariant
// across thread counts. Further rounds cover continuous batching with
// mixed sampler schedules and the reduced-precision tiers (int8/bf16), and
// a last round trains: its loss bits and parameter hash pin the autograd
// ops and UNet::forward, and so the bytes of a saved checkpoint.
//
// `determinism_probe --isa-usable <name>` is a host-capability probe for
// the ctest wrapper: exit 0 when this binary can dispatch <name> here,
// 3 when it cannot (the wrapper skips that ISA leg instead of failing).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <future>

#include "core/config.hpp"
#include "core/patternpaint.hpp"
#include "diffusion/convert.hpp"
#include "diffusion/ddpm.hpp"
#include "expand/expander.hpp"
#include "nn/optimizer.hpp"
#include "nn/simd.hpp"
#include "patterngen/track_generator.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  if (argc == 3 && std::strcmp(argv[1], "--isa-usable") == 0) {
    try {
      return nn::isa_usable(nn::parse_isa(argv[2])) ? 0 : 3;
    } catch (const std::exception&) {
      return 3;  // unknown name = this binary has no such tier
    }
  }
  PatternPaintConfig cfg = sd1_config();
  cfg.clip_size = 32;
  cfg.ddpm.unet.base_channels = 8;
  cfg.ddpm.unet.time_dim = 16;
  cfg.ddpm.T = 60;
  cfg.ddpm.sample_steps = 4;
  cfg.representatives = 4;

  RuleSet rules = default_rules();
  rules.min_width_h = rules.min_width_v = 3;
  rules.min_space_h = rules.min_space_v = 3;
  rules.min_area = 20;

  TrackGenConfig tg;
  tg.width = tg.height = 32;
  tg.min_segment = 10;
  tg.max_segment = 26;
  tg.min_gap = 3;
  tg.max_gap = 8;
  tg.min_strap = 3;
  tg.max_strap = 6;
  tg.max_extra_space = 5;
  Rng starter_rng(777);
  std::vector<Raster> starters =
      TrackPatternGenerator(tg, rules).generate(2, starter_rng);

  PatternPaint pp(cfg, rules, /*seed=*/4242);
  pp.set_starters(starters);
  pp.initial_generation(/*variations_per_mask=*/1);
  pp.iteration_round(5);

  std::printf("generated %zu legal %zu library %zu\n", pp.total_generated(),
              pp.total_legal(), pp.library().size());
  for (const Raster& c : pp.library().clips())
    std::printf("%016" PRIx64 "\n", c.hash());

  // Expansion round: grow a 32x32 seed to 64x48 twice — strictly
  // sequential (batch_limit 1) and whole-wave (batch_limit 0) execution.
  // The disjoint-commit invariant plus per-window RNG streams make the
  // committed canvas a pure function of (seed raster, request seed): both
  // hashes must match each other AND stay bitwise invariant across
  // PP_THREADS, or wavefront scheduling leaked into the bits.
  for (int batch_limit : {1, 0}) {
    expand::ExpandResult res =
        expand::expand_layout(pp, starters[0], 64, 48, /*request_seed=*/515,
                              expand::ExpandConfig{}, batch_limit);
    std::printf("expand limit %d windows %d waves %d canvas %016" PRIx64
                "\n",
                batch_limit, res.stats.windows_total, res.stats.waves,
                res.canvas.hash());
  }

  // Serve round: three requests coalesced into one micro-batch (submitted
  // before start() so they queue together).
  serve::ModelSpec spec;
  spec.key = "probe";
  spec.preset = "sd1";
  spec.clip_size = 16;
  spec.timesteps = 40;
  spec.sample_steps = 4;
  spec.base_channels = 6;
  spec.time_dim = 16;
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->load(spec);
  serve::GenerationServer server(registry);
  std::vector<std::future<serve::GenResponse>> futs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    serve::GenRequest req;
    req.id = i + 1;
    req.op = serve::GenRequest::Op::kSample;
    req.model = "probe";
    req.seed = 0xAB00 + i;
    req.count = 2;
    futs.push_back(server.submit(std::move(req)));
  }
  server.start();
  for (auto& f : futs) {
    serve::GenResponse resp = f.get();
    std::printf("serve id %" PRIu64 " batch %d ok %d\n", resp.id,
                resp.batch_samples, resp.ok());
    for (const Raster& p : resp.patterns)
      std::printf("%016" PRIx64 "\n", p.hash());
  }

  // Continuous-batching round: mixed per-request sampler schedules in one
  // running batch, plus a request submitted only after the batch is in
  // flight (a genuine late join). Pattern hashes must not depend on WHEN a
  // sample joined or how many neighbours it shared steps with, so only id
  // and hashes are printed — batch composition is timing, bits are not.
  std::vector<std::future<serve::GenResponse>> cfuts;
  auto submit_steps = [&](std::uint64_t id, int steps, double eta, int count) {
    serve::GenRequest req;
    req.id = id;
    req.op = serve::GenRequest::Op::kSample;
    req.model = "probe";
    req.seed = 0xCD00 + id;
    req.count = count;
    req.steps = steps;
    req.eta = eta;
    cfuts.push_back(server.submit(std::move(req)));
  };
  submit_steps(11, 40, -1.0, 2);  // the full schedule: the long pole
  submit_steps(12, 2, 0.0, 1);    // leaves 38 steps early
  submit_steps(13, 8, 1.0, 1);
  while (server.queue_depth() > 0) {}  // wait until the batch is running
  submit_steps(14, 4, -1.0, 2);        // joins mid-generation
  for (auto& f : cfuts) {
    serve::GenResponse resp = f.get();
    std::printf("cont id %" PRIu64 " ok %d\n", resp.id, resp.ok());
    for (const Raster& p : resp.patterns)
      std::printf("%016" PRIx64 "\n", p.hash());
  }

  // Quantized round: the same bar for the reduced-precision tiers. Mixed
  // int8/bf16/fp32 traffic forces the continuous executor to split batches
  // by tier; every request's hashes must stay a pure function of its
  // (seed, precision), bitwise invariant across thread counts.
  std::vector<std::future<serve::GenResponse>> qfuts;
  auto submit_prec = [&](std::uint64_t id, const char* precision, int count) {
    serve::GenRequest req;
    req.id = id;
    req.op = serve::GenRequest::Op::kSample;
    req.model = "probe";
    req.seed = 0xEF00 + id;
    req.count = count;
    req.precision = precision;
    qfuts.push_back(server.submit(std::move(req)));
  };
  submit_prec(21, "int8", 2);
  submit_prec(22, "fp32", 1);
  submit_prec(23, "int8", 1);
  submit_prec(24, "bf16", 2);
  for (auto& f : qfuts) {
    serve::GenResponse resp = f.get();
    std::printf("quant id %" PRIu64 " ok %d\n", resp.id, resp.ok());
    for (const Raster& p : resp.patterns)
      std::printf("%016" PRIx64 "\n", p.hash());
  }
  server.shutdown();

  // Training round: train_step and finetune_step (with the prior term) on
  // the tiny UNet, attention off then on. Prints each loss's bits and an
  // FNV-1a hash over parameters() in order, which is the checkpoint payload.
  nn::Tensor x0 = rasters_to_tensor(starters);
  nn::Tensor prior = rasters_to_tensor({starters[1], starters[0]});
  nn::Tensor full = nn::Tensor::full(x0.shape(), 1.0f);
  nn::Tensor box(x0.shape());
  for (int n = 0; n < x0.dim(0); ++n)
    for (int h = 8; h < 24; ++h)
      for (int w = 8; w < 24; ++w) box.at4(n, 0, h, w) = 1.0f;
  for (bool attention : {false, true}) {
    DdpmConfig dc = cfg.ddpm;
    dc.unet.attention = attention;
    Rng rng(31337);
    Ddpm model(dc, rng);
    nn::Adam opt(model.parameters(), cfg.pretrain_lr);
    std::printf("train attention %d", attention);
    for (int i = 0; i < 3; ++i)
      std::printf(" %a", model.train_step(x0, box, opt, rng));
    for (int i = 0; i < 3; ++i)
      std::printf(" %a", model.finetune_step(x0, box, prior, full,
                                             cfg.lambda_prior, opt, rng));
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const nn::Var& p : model.parameters()) {
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(p->value.data());
      for (std::size_t i = 0; i < p->value.numel() * sizeof(float); ++i)
        hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
    std::printf(" params %016" PRIx64 "\n", hash);
  }
  return 0;
}
