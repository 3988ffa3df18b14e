// Free-size pattern generation via outpainting (the paper's future work;
// cf. ChatPattern's free-size customization).
//
// Grows one starter clip to an arbitrary-size canvas by sliding-window
// outpainting: each window conditions on already-committed geometry, so
// design-rule context propagates outward from the seed. expand_layout runs
// the same planner and per-window RNG streams the serve tier's executor
// uses, so a layout grown here is bitwise identical to the one an `expand`
// request produces for the same seed. The grown layout is exported as PGM
// + ASCII GDS, and its clip-level DRC verdict printed.
//
// PP_FREESIZE_QUICK=1 shrinks the model and targets (16px clips, a few
// training steps, 48x32 canvas) so the example finishes in seconds — the
// smoke-test mode wired into ctest as example_free_size_smoke.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/patternpaint.hpp"
#include "expand/expander.hpp"
#include "io/gds_text.hpp"
#include "io/image_io.hpp"
#include "patterngen/track_generator.hpp"

int main() {
  using namespace pp;
  const char* quick_env = std::getenv("PP_FREESIZE_QUICK");
  const bool quick = quick_env && quick_env[0] == '1';

  RuleSet rules = scale_rules_down(advance_rules(), 2);
  const int clip = quick ? 16 : 32;
  Rng data_rng(64);
  TrackPatternGenerator gen(track_config_for_clip(clip), rules);
  std::vector<Raster> starters = gen.generate(8, data_rng);

  PatternPaintConfig cfg = sd1_config();
  cfg.clip_size = clip;
  if (quick) {
    cfg.ddpm.T = 40;
    cfg.ddpm.sample_steps = 4;
    cfg.ddpm.unet.base_channels = 6;
    cfg.ddpm.unet.groups = 2;
    cfg.ddpm.unet.time_dim = 16;
    cfg.pretrain_corpus = 24;
    cfg.pretrain_steps = 8;
    cfg.pretrain_batch = 4;
    cfg.finetune_steps = 6;
    cfg.finetune_batch = 4;
    cfg.prior_samples = 2;
  } else {
    cfg.pretrain_corpus = 96;
    cfg.pretrain_steps = 120;
    cfg.finetune_steps = 80;
    cfg.prior_samples = 6;
  }
  PatternPaint pp(cfg, rules, /*seed=*/99);
  std::printf("training miniature model...\n");
  pp.pretrain();
  pp.finetune(starters);

  const int target_w = quick ? 48 : 96;
  const int target_h = quick ? 32 : 64;
  std::printf("outpainting %dx%d seed to %dx%d...\n", clip, clip, target_w,
              target_h);
  const Raster grown = expand::expand_layout(pp, starters[0], target_w,
                                             target_h, /*request_seed=*/2024)
                           .canvas;

  std::filesystem::create_directories("freesize");
  write_pgm(grown, "freesize/grown.pgm", /*scale=*/6);
  write_gds_text({grown}, "freesize/grown.gds");

  DrcChecker drc(rules);
  DrcResult res = drc.check(grown);
  std::printf("grown layout: %dx%d px, %lld metal px, %zu DRC violations\n",
              grown.width(), grown.height(), grown.count_ones(),
              res.violations.size());
  if (!res.clean())
    std::printf("first violation: %s\n(outpainted layouts are candidates — "
                "run several seeds and keep the clean ones, exactly like "
                "clip generation)\n",
                res.violations[0].to_string().c_str());
  std::printf("exported to freesize/grown.pgm and freesize/grown.gds\n");
  return 0;
}
