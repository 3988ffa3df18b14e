// Tier-1 tests for the expansion subsystem (src/expand): the tiling plan
// and its dependency edges, the disjoint-commit determinism contract
// (wavefront == sequential, bitwise), seam-aware window DRC idempotence,
// the canvas edge cap, and the serve-side `expand` request type
// (admission validation, the executor bitwise against the in-process
// engine, cancellation without a cache insert).
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/config.hpp"
#include "core/patternpaint.hpp"
#include "expand/canvas.hpp"
#include "expand/expander.hpp"
#include "expand/plan.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace pp::expand {
namespace {

using serve::ErrorCode;
using serve::GenRequest;
using serve::GenResponse;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::ServerConfig;

/// Tiny untrained model (weights a pure function of the init seed), same
/// shape the serve tests use: clip 16, 40 timesteps, 4 sample steps.
ModelSpec tiny_spec(const std::string& key = "t") {
  ModelSpec spec;
  spec.key = key;
  spec.preset = "sd1";
  spec.clip_size = 16;
  spec.timesteps = 40;
  spec.sample_steps = 4;
  spec.base_channels = 6;
  spec.time_dim = 16;
  return spec;
}

std::shared_ptr<ModelRegistry> tiny_registry() {
  auto registry = std::make_shared<ModelRegistry>();
  registry->load(tiny_spec());
  return registry;
}

Raster seed_raster(int w, int h) {
  Raster r(w, h, 0);
  r.fill_rect(Rect{1, 1, w - 1, h / 2}, 1);
  return r;
}

GenRequest expand_req(std::uint64_t id, int tw, int th,
                      std::uint64_t seed = 7) {
  GenRequest req;
  req.id = id;
  req.op = GenRequest::Op::kExpand;
  req.model = "t";
  req.seed = seed;
  req.count = 1;
  req.target_w = tw;
  req.target_h = th;
  return req;
}

// ---------------------------------------------------------------------------
// Plan

TEST(ExpandPlan, ShapesWavesAndDependencyEdges) {
  const ExpandPlan plan = make_expand_plan(64, 48, 32);
  EXPECT_EQ(plan.nx, 3);  // xs = {0, 16, 32}
  EXPECT_EQ(plan.ny, 2);  // ys = {0, 16}
  ASSERT_EQ(plan.windows.size(), 6u);
  EXPECT_EQ(plan.waves(), 4);  // nx + ny - 1
  for (const ExpandWindow& w : plan.windows) {
    EXPECT_EQ(w.wave, w.ix + w.iy);
    EXPECT_EQ(w.x0 + plan.clip <= plan.target_w, true);
    EXPECT_EQ(w.y0 + plan.clip <= plan.target_h, true);
    const auto& dep = plan.deps[static_cast<std::size_t>(w.index)];
    if (w.ix == 0) {
      EXPECT_EQ(dep[0], -1);
    } else {
      EXPECT_EQ(dep[0], plan.at(w.ix - 1, w.iy).index);
    }
    if (w.iy == 0) {
      EXPECT_EQ(dep[1], -1);
    } else {
      EXPECT_EQ(dep[1], plan.at(w.ix, w.iy - 1).index);
    }
  }
  // Last window reaches the far corner exactly.
  EXPECT_EQ(plan.at(plan.nx - 1, 0).x0, 64 - 32);
  EXPECT_EQ(plan.at(0, plan.ny - 1).y0, 48 - 32);
}

TEST(ExpandPlan, ValidatorRejectsDegenerateRequests) {
  // Non-positive and smaller-than-clip targets.
  EXPECT_FALSE(expand_request_problem(0, 64, 32, 0, 0).empty());
  EXPECT_FALSE(expand_request_problem(64, -3, 32, 0, 0).empty());
  EXPECT_FALSE(expand_request_problem(16, 64, 32, 0, 0).empty());
  // Seed larger than one clip window.
  EXPECT_FALSE(expand_request_problem(64, 64, 32, 40, 8).empty());
  EXPECT_FALSE(expand_request_problem(64, 64, 32, 8, 40).empty());
  // The happy path.
  EXPECT_TRUE(expand_request_problem(64, 48, 32, 32, 32).empty());
  EXPECT_TRUE(expand_request_problem(32, 32, 32, 0, 0).empty());
  // The one canvas edge cap, shared by the library, serve and the CLI.
  EXPECT_FALSE(expand_request_problem(4097, 32, 32, 0, 0).empty());
  EXPECT_FALSE(
      expand_request_problem(32, kMaxCanvasEdge + 1, 32, 0, 0).empty());
  EXPECT_TRUE(
      expand_request_problem(kMaxCanvasEdge, kMaxCanvasEdge, 32, 0, 0)
          .empty());
  // make_expand_plan enforces the same contract as a typed error.
  EXPECT_THROW(make_expand_plan(16, 64, 32), Error);
  EXPECT_THROW(make_expand_plan(0, 64, 32), Error);
  EXPECT_THROW(make_expand_plan(64, 64, 0), Error);
  EXPECT_THROW(make_expand_plan(kMaxCanvasEdge + 1, 64, 32), Error);
}

// ---------------------------------------------------------------------------
// Canvas

TEST(ExpandCanvas, DoubleCommitThrows) {
  ExpandCanvas c(8, 8);
  c.commit(3, 3, 1);
  EXPECT_THROW(c.commit(3, 3, 1), Error);
}

// ---------------------------------------------------------------------------
// Engine determinism (in-process)

TEST(Expander, WavefrontAndSequentialAreBitwiseIdentical) {
  auto registry = tiny_registry();
  PatternPaint& pp = *registry->get("t")->pp;
  const Raster seed = seed_raster(16, 16);

  const ExpandResult wave = expand_layout(pp, seed, 40, 32, 99, {}, 0);
  const ExpandResult seq = expand_layout(pp, seed, 40, 32, 99, {}, 1);
  const ExpandResult pair = expand_layout(pp, seed, 40, 32, 99, {}, 2);
  EXPECT_TRUE(wave.canvas == seq.canvas);
  EXPECT_TRUE(wave.canvas == pair.canvas);
  EXPECT_EQ(wave.stats.windows_total, seq.stats.windows_total);
  EXPECT_EQ(wave.stats.waves, seq.stats.waves);
  EXPECT_EQ(wave.stats.seam_violations, seq.stats.seam_violations);

  // The seed region survives verbatim.
  for (int y = 0; y < seed.height(); ++y)
    for (int x = 0; x < seed.width(); ++x)
      EXPECT_EQ(wave.canvas(x, y), seed(x, y));
}

TEST(Expander, WrapperValidatesSeedAndTargets) {
  auto registry = tiny_registry();
  PatternPaint& pp = *registry->get("t")->pp;
  // Seed larger than the clip and non-positive / sub-clip targets are
  // typed errors, the same contract serve admission enforces.
  EXPECT_THROW(expand_layout(pp, seed_raster(20, 20), 64, 64, 0), Error);
  EXPECT_THROW(expand_layout(pp, seed_raster(8, 8), 0, 64, 0), Error);
  EXPECT_THROW(expand_layout(pp, seed_raster(8, 8), 64, -1, 0), Error);
  EXPECT_THROW(expand_layout(pp, seed_raster(8, 8), 8, 64, 0), Error);
  EXPECT_THROW(expand_layout(pp, seed_raster(8, 8), 64, kMaxCanvasEdge + 1, 0),
               Error);
}

TEST(Expander, SeamDrcIsIdempotentAndRunInvariant) {
  auto registry = tiny_registry();
  PatternPaint& pp = *registry->get("t")->pp;
  const Raster seed = seed_raster(16, 16);

  const ExpandResult a = expand_layout(pp, seed, 48, 32, 31, {}, 0);
  const ExpandResult b = expand_layout(pp, seed, 48, 32, 31, {}, 0);
  // Identical runs report identical quality stats (DRC is deterministic).
  EXPECT_EQ(a.stats.drc_checked, b.stats.drc_checked);
  EXPECT_EQ(a.stats.drc_clean, b.stats.drc_clean);
  EXPECT_EQ(a.stats.total_violations, b.stats.total_violations);
  EXPECT_EQ(a.stats.seam_violations, b.stats.seam_violations);
  EXPECT_EQ(a.stats.windows_generated, a.stats.drc_checked);

  // Re-checking every committed window crop off the finished canvas finds
  // the same totals the engine recorded: committing neighbours later never
  // perturbs an already-checked window (the overlap was already fixed).
  DrcChecker checker(pp.rules());
  const ExpandPlan plan = make_expand_plan(48, 32, 16);
  std::uint64_t recount = 0;
  for (const ExpandWindow& w : plan.windows) {
    const Raster crop = a.canvas.crop(
        Rect{w.x0, w.y0, w.x0 + plan.clip, w.y0 + plan.clip});
    recount += checker.check(crop).violations.size();
  }
  EXPECT_EQ(recount, a.stats.total_violations);
}

// ---------------------------------------------------------------------------
// Serve integration

TEST(ServeExpand, ExecutorMatchesTheInProcessEngineBitwise) {
  auto registry = tiny_registry();
  PatternPaint& pp = *registry->get("t")->pp;
  const Raster seed = seed_raster(12, 10);
  const ExpandResult ref = expand_layout(pp, seed, 32, 24, 77, {}, 0);

  serve::GenerationServer server(registry);
  server.start();
  GenRequest req = expand_req(1, 32, 24, 77);
  req.tmpl = seed;
  GenResponse resp = server.submit(std::move(req)).get();
  ASSERT_TRUE(resp.ok()) << resp.message;
  ASSERT_EQ(resp.patterns.size(), 1u);
  EXPECT_TRUE(resp.patterns[0] == ref.canvas)
      << "executor diverged from the in-process engine";
  EXPECT_TRUE(resp.is_expand);
  EXPECT_EQ(resp.target_w, 32);
  EXPECT_EQ(resp.target_h, 24);
  EXPECT_EQ(resp.expand_windows, ref.stats.windows_total);
  EXPECT_EQ(resp.expand_waves, ref.stats.waves);
  EXPECT_EQ(resp.expand_seam_violations, ref.stats.seam_violations);
  ASSERT_EQ(resp.legal.size(), 1u);
  EXPECT_EQ(resp.legal[0], ref.stats.drc_checked == ref.stats.drc_clean);
  server.shutdown();
}

TEST(ServeExpand, InterleavesWithSampleTrafficUnperturbed) {
  auto registry = tiny_registry();
  serve::GenerationServer solo(registry);
  solo.start();
  GenRequest sref;
  sref.id = 1;
  sref.op = GenRequest::Op::kSample;
  sref.model = "t";
  sref.seed = 0xBEEF;
  sref.count = 2;
  GenResponse ref = solo.submit(GenRequest(sref)).get();
  solo.shutdown();
  ASSERT_TRUE(ref.ok());

  // Same sample request sharing the continuous batch with an expansion:
  // the expansion's windows join/leave around it, its bits must not move.
  serve::GenerationServer server(registry);
  GenRequest xreq = expand_req(2, 48, 48, 3);
  auto xfut = server.submit(std::move(xreq));
  auto sfut = server.submit(GenRequest(sref));
  server.start();
  GenResponse xresp = xfut.get();
  GenResponse sresp = sfut.get();
  server.shutdown();
  ASSERT_TRUE(xresp.ok()) << xresp.message;
  ASSERT_TRUE(sresp.ok()) << sresp.message;
  ASSERT_EQ(sresp.patterns.size(), ref.patterns.size());
  for (std::size_t i = 0; i < ref.patterns.size(); ++i)
    EXPECT_TRUE(sresp.patterns[i] == ref.patterns[i]);
  EXPECT_EQ(xresp.patterns[0].width(), 48);
  EXPECT_EQ(xresp.patterns[0].height(), 48);
}

TEST(ServeExpand, AdmissionRejectsMalformedExpansions) {
  auto registry = tiny_registry();
  serve::GenerationServer server(registry);
  server.start();
  auto expect_bad = [&](GenRequest req, const char* what) {
    GenResponse resp = server.submit(std::move(req)).get();
    EXPECT_EQ(resp.error, ErrorCode::kBadRequest) << what << ": "
                                                  << resp.message;
  };
  GenRequest multi = expand_req(1, 32, 32);
  multi.count = 3;
  expect_bad(std::move(multi), "count > 1");
  expect_bad(expand_req(2, 0, 32), "zero width");
  expect_bad(expand_req(3, 32, -4), "negative height");
  expect_bad(expand_req(4, 8, 32), "target below clip");
  expect_bad(expand_req(5, 5000, 32), "width over the canvas edge cap");
  expect_bad(expand_req(6, 32, 5000), "height over the canvas edge cap");
  GenRequest big_seed = expand_req(7, 64, 64);
  big_seed.tmpl = seed_raster(20, 20);  // larger than the 16px clip
  expect_bad(std::move(big_seed), "seed over clip");
  // The boundary case is accepted.
  GenResponse ok = server.submit(expand_req(8, 16, 16)).get();
  EXPECT_TRUE(ok.ok()) << ok.message;
  server.shutdown();
}

TEST(ServeExpand, CancelMidExpansionLeavesNoCacheEntry) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.cache_entries = 8;
  serve::GenerationServer server(registry, cfg);
  server.start();

  // 128x128 at clip 16 / stride 8 = 225 windows: long enough that a cancel
  // shortly after submit lands mid-expansion (and a queue-side cancel
  // exercises the same no-insert property anyway).
  auto fut = server.submit(expand_req(1, 128, 128, 42));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.cancel(1);
  GenResponse resp = fut.get();
  EXPECT_EQ(resp.error, ErrorCode::kCancelled) << resp.message;
  EXPECT_EQ(server.cache().size(), 0u) << "cancelled expansion was cached";

  // The identical re-submission must MISS (nothing partial was inserted)
  // and then complete; a smaller target keeps the rerun fast.
  const std::uint64_t hits_before = server.cache().hits();
  GenResponse again = server.submit(expand_req(2, 32, 32, 42)).get();
  EXPECT_TRUE(again.ok()) << again.message;
  EXPECT_FALSE(again.cached);
  EXPECT_EQ(server.cache().hits(), hits_before);
  server.shutdown();
}

TEST(ServeExpand, CacheHitIsBitwiseAndKeyedOnTargetDims) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.cache_entries = 8;
  serve::GenerationServer server(registry, cfg);
  server.start();

  GenResponse cold = server.submit(expand_req(1, 32, 24, 9)).get();
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_FALSE(cold.cached);

  GenResponse warm = server.submit(expand_req(2, 32, 24, 9)).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cached);
  ASSERT_EQ(warm.patterns.size(), 1u);
  EXPECT_TRUE(warm.patterns[0] == cold.patterns[0]);
  EXPECT_EQ(warm.expand_windows, cold.expand_windows);
  EXPECT_EQ(warm.expand_waves, cold.expand_waves);

  // Different target dims are a different identity: no false hit.
  GenResponse other = server.submit(expand_req(3, 32, 32, 9)).get();
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.cached);
  EXPECT_FALSE(other.patterns[0] == cold.patterns[0]);
  server.shutdown();
}

}  // namespace
}  // namespace pp::expand
