// Expansion-subsystem benchmark: arbitrary-size layout synthesis through
// the wavefront scheduler (src/expand).
//
// Output (grep '^{"bench"'):
//   {"bench": "expand_ab", "ms": <wavefront wall>, "sequential_ms": ...,
//    "speedup": ..., "bitwise_identical": 0|1, "windows": ..., "waves": ...,
//    "drc_pass_rate": ..., "threads": ..., "cpus": ...}
//   {"bench": "expand_1024", "ms": ..., "target_w": 1024, "target_h": 1024,
//    "windows": ..., "waves": ..., "windows_per_s": ...,
//    "seam_violations": ..., "drc_pass_rate": ..., "threads": ...,
//    "cpus": ...}
//
// Phase 1 (expand_ab) runs the SAME 192x192 plan twice — batch_limit 1
// (strictly sequential, one window per model call) vs whole waves — and
// asserts the canvases are bitwise identical; the speedup column is the
// wavefront-batching win. The >= 2x acceptance gate lives in
// scripts/check_bench_json.py and applies only on hosts with >= 4 CPUs and
// a >= 4-wide pool: batching windows through one Ddpm::inpaint call buys
// wall-clock only when the UNet's intra-batch parallelism has cores to
// spread over (a 1-CPU container measures ~1.0x; the bitwise and DRC gates
// are unconditional).
//
// Phase 2 (expand_1024) grows the paper-scale 1024x1024 canvas (the
// "arbitrary size" acceptance artifact) with bounded memory: committed row
// bands stream straight into results/expand_1024.pgm + .gds via the
// streaming writers and are freed behind the frontier.
//
// The model is a tiny untrained sd1 (weights a pure function of the init
// seed): generation cost per window is identical in KIND to a trained
// model's, and determinism makes the bitwise assertion meaningful.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchutil.hpp"
#include "common/parallel.hpp"
#include "expand/expander.hpp"
#include "io/stream_export.hpp"
#include "serve/registry.hpp"

namespace pp {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

serve::ModelRegistry::EntryPtr tiny_model() {
  serve::ModelSpec spec;
  spec.key = "bench";
  spec.preset = "sd1";
  spec.clip_size = 16;
  spec.timesteps = 40;
  spec.sample_steps = 4;
  spec.base_channels = 6;
  spec.time_dim = 16;
  auto registry = std::make_shared<serve::ModelRegistry>();
  static serve::ModelRegistry::EntryPtr keep;  // outlive the registry
  keep = registry->load(spec);
  return keep;
}

Raster seed_clip(int clip) {
  Raster r(clip, clip, 0);
  r.fill_rect(Rect{1, 2, clip - 1, 5}, 1);
  r.fill_rect(Rect{2, 8, 5, clip - 2}, 1);
  return r;
}

}  // namespace
}  // namespace pp

int main() {
  using namespace pp;
  const auto entry = tiny_model();
  PatternPaint& painter = *entry->pp;
  const int clip = entry->cfg.clip_size;
  const Raster seed = seed_clip(clip);
  const double threads = static_cast<double>(pool_stats().threads);
  const double cpus =
      static_cast<double>(std::thread::hardware_concurrency());

  // ------------------------------------------------------------------
  // Phase 1: wavefront vs sequential on the identical 192x192 plan.
  const int ab = 192;
  const std::uint64_t rseed = 2024;

  Clock::time_point t0 = Clock::now();
  expand::ExpandResult seq =
      expand::expand_layout(painter, seed, ab, ab, rseed, {}, 1);
  const double seq_ms = ms_since(t0);

  t0 = Clock::now();
  expand::ExpandResult wave =
      expand::expand_layout(painter, seed, ab, ab, rseed, {}, 0);
  const double wave_ms = ms_since(t0);

  const bool bitwise = wave.canvas == seq.canvas;
  const double speedup = wave_ms > 0.0 ? seq_ms / wave_ms : 0.0;
  std::printf("expand %dx%d: %d windows, %d waves | sequential %.0f ms, "
              "wavefront %.0f ms (%.2fx) | bitwise %s | DRC pass %.3f\n",
              ab, ab, wave.stats.windows_total, wave.stats.waves, seq_ms,
              wave_ms, speedup, bitwise ? "IDENTICAL" : "DIVERGED",
              wave.stats.drc_pass_rate());
  bench::emit_json_summary(
      "expand_ab", wave_ms,
      {{"sequential_ms", seq_ms},
       {"speedup", speedup},
       {"bitwise_identical", bitwise ? 1.0 : 0.0},
       {"windows", static_cast<double>(wave.stats.windows_total)},
       {"waves", static_cast<double>(wave.stats.waves)},
       {"drc_pass_rate", wave.stats.drc_pass_rate()},
       {"threads", threads},
       {"cpus", cpus}});

  // ------------------------------------------------------------------
  // Phase 2: the 1024x1024 acceptance canvas, streamed with bounded
  // memory (row bands freed behind the commit frontier).
  const int big = 1024;
  const std::string dir = bench::results_dir();
  PgmStreamWriter pgm(dir + "/expand_1024.pgm", big, big);
  GdsTextStreamWriter gds(dir + "/expand_1024.gds", big, big);
  expand::ExpandConfig cfg;
  cfg.free_bands = true;
  cfg.band_sink = [&](int y0, const Raster& band) {
    pgm.write_band(band);
    gds.write_band(y0, band);
  };
  t0 = Clock::now();
  expand::ExpandResult grown =
      expand::expand_layout(painter, seed, big, big, rseed + 1, cfg, 0);
  const double big_ms = ms_since(t0);
  pgm.close();
  gds.close();

  const double wps =
      big_ms > 0.0 ? grown.stats.windows_generated / (big_ms / 1000.0) : 0.0;
  std::printf("expand %dx%d: %d windows in %d waves, %.1f s (%.0f win/s), "
              "%llu seam violations, DRC pass %.3f\n",
              big, big, grown.stats.windows_total, grown.stats.waves,
              big_ms / 1000.0, wps,
              static_cast<unsigned long long>(grown.stats.seam_violations),
              grown.stats.drc_pass_rate());
  std::printf("streamed to %s/expand_1024.pgm and .gds\n", dir.c_str());
  bench::emit_json_summary(
      "expand_1024", big_ms,
      {{"target_w", static_cast<double>(big)},
       {"target_h", static_cast<double>(big)},
       {"windows", static_cast<double>(grown.stats.windows_total)},
       {"waves", static_cast<double>(grown.stats.waves)},
       {"windows_per_s", wps},
       {"seam_violations",
        static_cast<double>(grown.stats.seam_violations)},
       {"drc_pass_rate", grown.stats.drc_pass_rate()},
       {"threads", threads},
       {"cpus", cpus}});

  bench::finalize_observability("bench_expand");
  return bitwise ? 0 : 1;
}
