// Tier-1 tests for the serving layer (src/serve): micro-batch coalescing
// must be bitwise invisible (through the threaded server and through
// ContinuousBatch driven one step at a time), admission control must reject
// with structured reasons, shutdown must drain gracefully, and the NDJSON
// pipe transport must serve concurrent clients.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/config.hpp"
#include "diffusion/convert.hpp"
#include "expand/expander.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/reqlog.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace pp::serve {
namespace {

/// Tiny untrained model: weights are a pure function of the init seed, so
/// generation is deterministic and fast enough for unit tests.
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

GenRequest sample_req(std::uint64_t id, std::uint64_t seed, int count = 1,
                      bool finish = true) {
  GenRequest req;
  req.id = id;
  req.op = GenRequest::Op::kSample;
  req.model = "t";
  req.seed = seed;
  req.count = count;
  req.finish = finish;
  return req;
}

Raster bar_template(int clip) {
  Raster t(clip, clip, 0);
  t.fill_rect(Rect{2, 4, clip - 2, 8}, 1);
  return t;
}

/// The sequential reference semantics from serve/protocol.hpp: one request,
/// alone, straight through the model. What every batched response must
/// match bitwise.
std::vector<Raster> sequential_reference(const ModelRegistry::EntryPtr& entry,
                                         const GenRequest& req) {
  const int clip = entry->cfg.clip_size;
  const std::size_t plane = static_cast<std::size_t>(clip) * clip;
  nn::Tensor known({req.count, 1, clip, clip});
  nn::Tensor mask({req.count, 1, clip, clip});
  nn::Tensor kt, mt;
  if (req.op == GenRequest::Op::kInpaint) {
    kt = raster_to_tensor(req.tmpl);
    mt = mask_to_tensor(req.mask);
  } else {
    kt = nn::Tensor::full({1, 1, clip, clip}, -1.0f);
    mt = nn::Tensor::full({1, 1, clip, clip}, 1.0f);
  }
  for (int k = 0; k < req.count; ++k) {
    std::copy_n(kt.data(), plane, known.data() + k * plane);
    std::copy_n(mt.data(), plane, mask.data() + k * plane);
  }
  Rng rng(req.seed);
  std::vector<std::uint64_t> gen_bases(static_cast<std::size_t>(req.count));
  for (auto& b : gen_bases) b = rng.draw_seed();
  nn::Tensor out = entry->pp->model().inpaint(
      known, mask, gen_bases,
      SamplerParams{req.steps, static_cast<float>(req.eta)});
  std::vector<Raster> raws = tensor_to_rasters(out);
  if (!req.finish) return raws;
  std::vector<std::uint64_t> bases(static_cast<std::size_t>(req.count));
  for (auto& b : bases) b = rng.draw_seed();
  const Raster tmpl = req.op == GenRequest::Op::kInpaint ? req.tmpl
                                                         : Raster(clip, clip, 0);
  std::vector<Raster> tmpls(static_cast<std::size_t>(req.count), tmpl);
  std::vector<Raster> result;
  for (const GenerationRecord& rec :
       entry->pp->finish_samples(raws, tmpls, bases))
    result.push_back(rec.denoised);
  return result;
}

// (a) Coalescing a mixed micro-batch must be bitwise identical to serving
// each request alone. Submitting before start() guarantees every request
// sits in the queue together, so the executor coalesces them all.
TEST(Serve, BatchedEqualsSequential) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  ServerConfig cfg;
  cfg.max_batch_samples = 16;
  GenerationServer server(registry, cfg);

  std::vector<GenRequest> reqs;
  reqs.push_back(sample_req(1, 11, 1));
  reqs.push_back(sample_req(2, 22, 3));
  reqs.push_back(sample_req(3, 33, 2, /*finish=*/false));
  GenRequest inpaint = sample_req(4, 44, 2);
  inpaint.op = GenRequest::Op::kInpaint;
  inpaint.tmpl = bar_template(entry->cfg.clip_size);
  inpaint.mask_id = 0;
  reqs.push_back(inpaint);

  std::vector<std::future<GenResponse>> futs;
  for (const GenRequest& r : reqs) futs.push_back(server.submit(r));
  server.start();

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    GenResponse resp = futs[i].get();
    ASSERT_TRUE(resp.ok()) << resp.message;
    // All four requests fit the 16-sample cap: one coalesced batch.
    EXPECT_EQ(resp.batch_samples, 8);
    GenRequest ref_req = reqs[i];
    if (ref_req.op == GenRequest::Op::kInpaint && ref_req.mask.empty())
      ref_req.mask = entry->masks[0];  // what admission resolves mask_id to
    std::vector<Raster> ref = sequential_reference(entry, ref_req);
    ASSERT_EQ(resp.patterns.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(resp.patterns[k], ref[k])
          << "request " << reqs[i].id << " sample " << k
          << " differs from sequential execution";
  }
  server.shutdown();
}

// Batch composition must not leak either: the same request must produce
// the same bits no matter which neighbours share its micro-batch.
TEST(Serve, BatchCompositionInvariant) {
  auto registry = tiny_registry();
  auto run_with = [&](std::vector<GenRequest> reqs, std::uint64_t want_id) {
    GenerationServer server(registry);
    std::vector<std::future<GenResponse>> futs;
    for (auto& r : reqs) futs.push_back(server.submit(std::move(r)));
    server.start();
    std::vector<Raster> got;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      GenResponse resp = futs[i].get();
      EXPECT_TRUE(resp.ok()) << resp.message;
      if (resp.id == want_id) got = resp.patterns;
    }
    server.shutdown();
    return got;
  };
  std::vector<Raster> alone = run_with({sample_req(7, 99, 2)}, 7);
  std::vector<Raster> crowded = run_with(
      {sample_req(5, 1, 1), sample_req(7, 99, 2), sample_req(6, 2, 2)}, 7);
  ASSERT_EQ(alone.size(), 2u);
  ASSERT_EQ(alone, crowded);
}

/// Spin until the queue has drained into the running batch, i.e. every
/// already-submitted request is in flight. Lets tests place a LATE request
/// mid-generation deterministically.
void wait_until_inflight(const GenerationServer& server) {
  while (server.queue_depth() > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

// Tentpole: requests with DIFFERENT sampler schedules share one continuous
// batch (steps/eta are per-sample state, not a batch key) and each comes
// out bitwise identical to running it alone.
TEST(Serve, ContinuousMixedSchedulesEqualSequential) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenerationServer server(registry);

  std::vector<GenRequest> reqs;
  reqs.push_back(sample_req(1, 11, 2));  // model default: 4 steps
  GenRequest fast = sample_req(2, 22, 2);
  fast.steps = 2;  // leaves the batch two steps early
  reqs.push_back(fast);
  GenRequest slow = sample_req(3, 33, 1);
  slow.steps = 9;
  slow.eta = 0.0;  // deterministic DDIM for this member only
  reqs.push_back(slow);
  GenRequest stochastic = sample_req(4, 44, 1);
  stochastic.eta = 1.0;
  reqs.push_back(stochastic);

  std::vector<std::future<GenResponse>> futs;
  for (const GenRequest& r : reqs) futs.push_back(server.submit(r));
  server.start();  // all four queued together: one formation join pass

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    GenResponse resp = futs[i].get();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.batch_samples, 6);  // all co-resident at step 0
    std::vector<Raster> ref = sequential_reference(entry, reqs[i]);
    ASSERT_EQ(resp.patterns.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(resp.patterns[k], ref[k])
          << "request " << reqs[i].id << " sample " << k
          << " differs from sequential execution";
  }
  server.shutdown();
  // The 2-step member left 6 steps before the 9-step member: the state
  // re-packed at least once with survivors.
  const obs::Json stats = server.stats_json();
  EXPECT_GE(stats.find("repacks")->as_number(), 1.0);
}

// Tentpole: a request submitted while another generation is mid-flight
// JOINS it at the next step boundary — and both still match their solo
// sequential reference bitwise.
TEST(Serve, ContinuousLateJoinBitwise) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenerationServer server(registry);

  GenRequest long_req = sample_req(1, 77, 6);
  long_req.steps = 40;  // the full schedule: plenty of boundaries to join at
  auto f_long = server.submit(long_req);
  server.start();
  wait_until_inflight(server);

  GenRequest late = sample_req(2, 88, 2);
  late.steps = 4;
  auto f_late = server.submit(late);

  GenResponse r_late = f_late.get();
  GenResponse r_long = f_long.get();
  server.shutdown();
  ASSERT_TRUE(r_long.ok()) << r_long.message;
  ASSERT_TRUE(r_late.ok()) << r_late.message;
  EXPECT_EQ(sequential_reference(entry, long_req), r_long.patterns);
  EXPECT_EQ(sequential_reference(entry, late), r_late.patterns);
  // The late request joined the running batch (a 40-step generation of 6
  // samples cannot have drained before a submit issued at step ~0) and
  // finished 36 steps before it.
  const obs::Json stats = server.stats_json();
  EXPECT_GE(stats.find("joins")->as_number(), 2.0);
  EXPECT_GE(stats.find("repacks")->as_number(), 1.0);
  EXPECT_GE(r_late.batch_samples, 8);  // saw the long request's 6 samples
}

// Tentpole: cancelling a member mid-flight makes it LEAVE at the next step
// boundary; the survivors' bits are untouched.
TEST(Serve, ContinuousCancelMidFlightLeaves) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenerationServer server(registry);

  GenRequest victim = sample_req(1, 5, 6);
  victim.steps = 40;
  GenRequest survivor = sample_req(2, 6, 2);
  survivor.steps = 40;
  auto f_victim = server.submit(victim);
  auto f_survivor = server.submit(survivor);
  server.start();
  wait_until_inflight(server);
  ASSERT_TRUE(server.cancel(1));

  GenResponse r_victim = f_victim.get();
  GenResponse r_survivor = f_survivor.get();
  server.shutdown();
  EXPECT_EQ(r_victim.error, ErrorCode::kCancelled);
  ASSERT_TRUE(r_survivor.ok()) << r_survivor.message;
  EXPECT_EQ(sequential_reference(entry, survivor), r_survivor.patterns);
  const obs::Json stats = server.stats_json();
  EXPECT_GE(stats.find("leaves")->as_number(), 1.0);
}

// Tentpole: a deadline that lapses mid-generation expires that member at
// the next step boundary ("timeout"), without dooming its batch-mates.
TEST(Serve, ContinuousDeadlineExpiresMidBatch) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenerationServer server(registry);

  GenRequest doomed = sample_req(1, 15, 6);
  doomed.steps = 40;
  doomed.deadline_ms = 10;  // lapses well inside a 40-step generation
  GenRequest fine = sample_req(2, 16, 2);
  fine.steps = 40;
  auto f_doomed = server.submit(doomed);
  auto f_fine = server.submit(fine);
  server.start();

  GenResponse r_doomed = f_doomed.get();
  GenResponse r_fine = f_fine.get();
  server.shutdown();
  EXPECT_EQ(r_doomed.error, ErrorCode::kTimeout);
  ASSERT_TRUE(r_fine.ok()) << r_fine.message;
  EXPECT_EQ(sequential_reference(entry, fine), r_fine.patterns);
}

// Regression: the continuous executor must forget the drained batch's clip
// shape. Serving model A (clip 16) then model B (clip 20) back-to-back used
// to trip the shape check in Ddpm::join against A's stale InpaintState and
// fail every B request with kInternal from then on.
TEST(Serve, ContinuousClipSizeSwitch) {
  auto registry = tiny_registry();
  ModelSpec small = tiny_spec("s");
  small.clip_size = 20;
  registry->load(small);
  GenerationServer server(registry);
  server.start();

  GenResponse r_big = server.submit(sample_req(1, 10, 2)).get();
  ASSERT_TRUE(r_big.ok()) << r_big.message;

  GenRequest small_req = sample_req(2, 20, 2);
  small_req.model = "s";
  GenResponse r_small = server.submit(small_req).get();
  ASSERT_TRUE(r_small.ok()) << r_small.message;
  EXPECT_EQ(sequential_reference(registry->get("s"), small_req),
            r_small.patterns);

  // ...and back to the first clip size again.
  GenResponse r_back = server.submit(sample_req(3, 30, 1)).get();
  ASSERT_TRUE(r_back.ok()) << r_back.message;
  server.shutdown();
}

// Fairness: while a batch for model A runs, a queued model-B request at the
// head must not be overtaken indefinitely by later-arriving A requests —
// new same-entry joins stop once the head waits on a different entry.
TEST(Serve, ContinuousCrossEntryFairness) {
  auto registry = tiny_registry();
  ModelSpec small = tiny_spec("s");
  small.clip_size = 20;
  registry->load(small);
  GenerationServer server(registry);

  GenRequest long_a = sample_req(1, 1, 4);
  long_a.steps = 40;
  auto f_long = server.submit(long_a);
  server.start();
  wait_until_inflight(server);

  std::mutex order_m;
  std::vector<std::uint64_t> order;
  auto record = [&](GenResponse r) {
    std::lock_guard<std::mutex> lk(order_m);
    EXPECT_TRUE(r.ok()) << r.message;
    order.push_back(r.id);
  };
  GenRequest cross = sample_req(2, 2, 1);  // heads the queue, model "s"
  cross.model = "s";
  server.submit(std::move(cross), record);
  GenRequest late_a = sample_req(3, 3, 1);  // would love to join the batch
  late_a.steps = 2;
  server.submit(std::move(late_a), record);

  ASSERT_TRUE(f_long.get().ok());
  server.shutdown();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u) << "cross-entry head was starved by a later join";
  EXPECT_EQ(order[1], 3u);
}

// --- ContinuousBatch without a server ---------------------------------------

PendingPtr pending_for(const ModelRegistry::EntryPtr& entry, GenRequest req) {
  auto p = std::make_shared<Pending>();
  p->req = std::move(req);
  p->entry = entry;
  return p;
}

/// A batch's retire callback: each response by request id, and how many
/// steps had run when it retired.
struct Retirements {
  std::map<std::uint64_t, GenResponse> resp;
  std::map<std::uint64_t, int> at_step;
  int steps = 0;

  std::function<void(Retired)> sink() {
    return [this](Retired r) {
      at_step[r.p->req.id] = steps;
      resp[r.p->req.id] = std::move(r.resp);
    };
  }
  void step(ContinuousBatch& batch) {
    ++steps;
    batch.step();
  }
  void drain(ContinuousBatch& batch) {
    while (!batch.empty()) step(batch);
  }
};

// A request admitted at exactly step 3 of a running 9-step request: both
// stay bitwise equal to their sequential references, and every count is
// exact.
TEST(ServeBatch, AdmitAtStepThreeIsBitwise) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenRequest first = sample_req(1, 31, 1);
  first.steps = 9;
  GenRequest late = sample_req(2, 32, 2);  // model default: 4 steps
  late.op = GenRequest::Op::kInpaint;
  late.tmpl = bar_template(entry->cfg.clip_size);
  late.mask = entry->masks[0];

  Retirements out;
  ContinuousBatch batch(16, out.sink());
  batch.admit(pending_for(entry, first));
  for (int i = 0; i < 3; ++i) out.step(batch);
  ASSERT_TRUE(out.resp.empty());
  batch.admit(pending_for(entry, late));
  EXPECT_EQ(batch.rows(), 3);
  out.drain(batch);

  EXPECT_EQ(out.at_step.at(2), 7);
  EXPECT_EQ(out.at_step.at(1), 9);
  for (const GenRequest& req : {first, late}) {
    const GenResponse& r = out.resp.at(req.id);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.batch_samples, 3);
    EXPECT_EQ(r.patterns, sequential_reference(entry, req))
        << "request " << req.id;
  }
  const BatchCounts c = batch.take_counts();
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.samples, 3u);
  EXPECT_EQ(c.joins, 2u);    // the late request's rows
  EXPECT_EQ(c.repacks, 1u);  // its finish left the first request running
  EXPECT_EQ(c.leaves, 0u);
  EXPECT_EQ(c.finished, 2u);
}

// A member cancelled at step 2 and one whose deadline passes at an injected
// time leave with their own codes; the survivors keep their bits.
TEST(ServeBatch, CancelAndDeadlineLeaveWithTheirOwnCodes) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  std::vector<GenRequest> reqs = {sample_req(1, 41, 2), sample_req(2, 42, 3),
                                  sample_req(3, 43, 1, /*finish=*/false),
                                  sample_req(4, 44, 2)};
  reqs[3].op = GenRequest::Op::kInpaint;
  reqs[3].tmpl = bar_template(entry->cfg.clip_size);
  reqs[3].mask = entry->masks[0];
  Retirements out;
  ContinuousBatch batch(16, out.sink());
  std::vector<PendingPtr> ps;
  for (GenRequest& req : reqs) {
    req.steps = 9;
    ps.push_back(pending_for(entry, req));
    batch.admit(ps.back());
  }
  const Clock::time_point t0 = Clock::now();
  ps[1]->has_deadline = true;
  ps[1]->deadline = t0 + std::chrono::hours(1);

  for (int i = 0; i < 2; ++i) out.step(batch);
  ps[0]->cancelled = true;
  batch.leave(t0);
  ASSERT_EQ(out.resp.size(), 1u);
  EXPECT_EQ(out.resp.at(1).error, ErrorCode::kCancelled);
  EXPECT_EQ(batch.rows(), 6);

  out.step(batch);
  batch.leave(ps[1]->deadline - std::chrono::nanoseconds(1));
  EXPECT_EQ(out.resp.size(), 1u);
  batch.leave(ps[1]->deadline);
  ASSERT_EQ(out.resp.size(), 2u);
  EXPECT_EQ(out.resp.at(2).error, ErrorCode::kTimeout);
  EXPECT_EQ(batch.rows(), 3);

  out.drain(batch);
  for (std::size_t i : {2u, 3u}) {
    const GenResponse& r = out.resp.at(reqs[i].id);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.patterns, sequential_reference(entry, reqs[i]))
        << "request " << reqs[i].id;
  }
  const BatchCounts c = batch.take_counts();
  EXPECT_EQ(c.leaves, 5u);   // 2 cancelled rows + 3 expired rows
  EXPECT_EQ(c.repacks, 2u);  // both leaves left rows running
  EXPECT_EQ(c.joins, 6u);    // every row after the first request's
  EXPECT_EQ(c.finished, 2u);
}

// An expansion beside a sample request, under a 2-row cap, commits the
// canvas the in-process engine builds.
TEST(ServeBatch, ExpansionBesideSampleUnderTwoRowCap) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  Raster seed(12, 10, 0);
  seed.fill_rect(Rect{1, 1, 11, 5}, 1);
  const expand::ExpandResult ref =
      expand::expand_layout(*entry->pp, seed, 32, 24, 77);

  GenRequest x;
  x.id = 1;
  x.op = GenRequest::Op::kExpand;
  x.model = "t";
  x.seed = 77;
  x.tmpl = seed;
  x.target_w = 32;
  x.target_h = 24;
  const GenRequest s = sample_req(2, 5, 1);
  Retirements out;
  ContinuousBatch batch(2, out.sink());
  batch.admit(pending_for(entry, x));
  batch.admit(pending_for(entry, s));
  out.drain(batch);

  const GenResponse& xr = out.resp.at(1);
  ASSERT_TRUE(xr.ok()) << xr.message;
  ASSERT_EQ(xr.patterns.size(), 1u);
  EXPECT_TRUE(xr.patterns[0] == ref.canvas);
  EXPECT_EQ(xr.expand_windows, ref.stats.windows_total);
  EXPECT_EQ(xr.batch_samples, 2);
  const GenResponse& sr = out.resp.at(2);
  ASSERT_TRUE(sr.ok()) << sr.message;
  EXPECT_EQ(sr.patterns, sequential_reference(entry, s));
}

// A done callback runs after its request left the in-flight set, so a
// cancel() from there finds nothing to cancel.
TEST(Serve, CancelFromDoneCallbackFindsNothing) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  server.start();
  std::promise<bool> found;
  server.submit(sample_req(5, 5), [&](GenResponse r) {
    EXPECT_TRUE(r.ok()) << r.message;
    found.set_value(server.cancel(5));
  });
  EXPECT_FALSE(found.get_future().get());
  server.shutdown();
}

// Per-request sampler knobs are validated against the model's schedule at
// admission: out-of-domain values are structured bad_request errors.
TEST(Serve, SamplerKnobAdmission) {
  auto registry = tiny_registry();  // T = 40
  GenerationServer server(registry);
  GenRequest too_few = sample_req(1, 1);
  too_few.steps = 1;
  EXPECT_EQ(server.submit(std::move(too_few)).get().error,
            ErrorCode::kBadRequest);
  GenRequest too_many = sample_req(2, 2);
  too_many.steps = 41;  // > T
  EXPECT_EQ(server.submit(std::move(too_many)).get().error,
            ErrorCode::kBadRequest);
  GenRequest bad_eta = sample_req(3, 3);
  bad_eta.eta = 1.5;
  EXPECT_EQ(server.submit(std::move(bad_eta)).get().error,
            ErrorCode::kBadRequest);
  GenRequest neg_eta = sample_req(5, 5);
  neg_eta.eta = -0.5;  // negative but not the -1.0 "model default" sentinel
  EXPECT_EQ(server.submit(std::move(neg_eta)).get().error,
            ErrorCode::kBadRequest);
  GenRequest ok = sample_req(4, 4);
  ok.steps = 2;
  ok.eta = 0.0;
  auto f_ok = server.submit(std::move(ok));
  server.shutdown();
  EXPECT_TRUE(f_ok.get().ok());
}

// Wire-level parse of the sampler knobs: type/domain errors are rejected
// before admission ever sees them.
TEST(Serve, ProtocolSamplerKnobs) {
  GenRequest req;
  std::string err;
  obs::Json good = obs::Json::parse(
      R"({"id":1,"op":"sample","model":"t","steps":8,"eta":0.25})");
  ASSERT_TRUE(gen_request_from_json(good, &req, &err)) << err;
  EXPECT_EQ(req.steps, 8);
  EXPECT_DOUBLE_EQ(req.eta, 0.25);

  obs::Json defaults =
      obs::Json::parse(R"({"id":1,"op":"sample","model":"t"})");
  ASSERT_TRUE(gen_request_from_json(defaults, &req, &err)) << err;
  EXPECT_EQ(req.steps, 0);
  EXPECT_DOUBLE_EQ(req.eta, -1.0);

  // 2^53 - 1 is the largest seed a double carries exactly.
  obs::Json max_seed = obs::Json::parse(
      R"({"id":1,"op":"sample","model":"t","seed":9007199254740991})");
  ASSERT_TRUE(gen_request_from_json(max_seed, &req, &err)) << err;
  EXPECT_EQ(req.seed, 9007199254740991ull);

  // Inference is fp32 only: old clients that name it keep working, and any
  // other precision is refused.
  obs::Json fp32 = obs::Json::parse(
      R"({"id":1,"op":"sample","model":"t","precision":"fp32"})");
  ASSERT_TRUE(gen_request_from_json(fp32, &req, &err)) << err;
  obs::Json int8 = obs::Json::parse(
      R"({"id":1,"op":"sample","model":"t","precision":"int8"})");
  EXPECT_FALSE(gen_request_from_json(int8, &req, &err));
  EXPECT_EQ(err, "precision: only \"fp32\" is served");

  for (const char* bad : {
           R"({"id":1,"op":"sample","model":"t","steps":-3})",
           R"({"id":1,"op":"sample","model":"t","steps":2.5})",
           R"({"id":1,"op":"sample","model":"t","eta":-0.1})",
           R"({"id":1,"op":"sample","model":"t","eta":1.01})",
           R"({"id":1,"op":"sample","model":"t","eta":"hot"})",
           // Numbers outside the target type's range: no wrapped casts.
           R"({"id":1,"op":"sample","model":"t","seed":1e20})",
           R"({"id":1e20,"op":"sample","model":"t"})",
           R"({"id":1,"op":"sample","model":"t","seed":9007199254740993})",
           R"({"id":1,"op":"expand","model":"t","target_w":4294967328,"target_h":32})",
           R"({"id":1,"op":"sample","model":"t","count":1e10})",
           R"({"id":1,"op":"sample","model":"t","precision":"bf16"})",
           R"({"id":1,"op":"sample","model":"t","precision":8})",
       }) {
    EXPECT_FALSE(gen_request_from_json(obs::Json::parse(bad), &req, &err))
        << bad;
  }
}

// (b) Bounded queue: admission rejects with a structured reason once full.
TEST(Serve, QueueFullRejects) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.max_queue = 2;
  GenerationServer server(registry, cfg);  // executor not started: queue holds
  auto f1 = server.submit(sample_req(1, 1));
  auto f2 = server.submit(sample_req(2, 2));
  auto f3 = server.submit(sample_req(3, 3));
  GenResponse rejected = f3.get();  // inline: resolves without the executor
  EXPECT_EQ(rejected.error, ErrorCode::kQueueFull);
  EXPECT_FALSE(rejected.ok());
  server.shutdown();  // drains the two accepted requests
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

// (b) Deadlines: a request whose deadline lapses in the queue completes as
// "timeout" without touching the model.
TEST(Serve, DeadlineExpiresInQueue) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  GenRequest doomed = sample_req(1, 1);
  doomed.deadline_ms = 0.01;
  auto f_doomed = server.submit(std::move(doomed));
  auto f_fine = server.submit(sample_req(2, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.shutdown();  // starts the executor; the deadline has long expired
  GenResponse timed_out = f_doomed.get();
  EXPECT_EQ(timed_out.error, ErrorCode::kTimeout);
  EXPECT_TRUE(f_fine.get().ok());
}

// Unknown model and bad shapes are structured admission errors.
TEST(Serve, AdmissionValidates) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  GenRequest req = sample_req(1, 1);
  req.model = "nope";
  EXPECT_EQ(server.submit(std::move(req)).get().error,
            ErrorCode::kUnknownModel);

  GenRequest bad_shape = sample_req(2, 2);
  bad_shape.op = GenRequest::Op::kInpaint;
  bad_shape.tmpl = Raster(8, 8, 0);  // model is 16x16
  bad_shape.mask = Raster(8, 8, 1);
  EXPECT_EQ(server.submit(std::move(bad_shape)).get().error,
            ErrorCode::kBadRequest);

  GenRequest bad_mask = sample_req(3, 3);
  bad_mask.op = GenRequest::Op::kInpaint;
  bad_mask.tmpl = bar_template(16);
  bad_mask.mask_id = 9999;
  EXPECT_EQ(server.submit(std::move(bad_mask)).get().error,
            ErrorCode::kBadRequest);

  // count must fit one running batch. The rejection is inline, so a count
  // that slipped through would sit in this never-started server's queue.
  const int cap = ServerConfig{}.max_batch_samples;
  for (int count : {0, -1, cap + 1, INT_MAX}) {
    std::future<GenResponse> f = server.submit(sample_req(4, 4, count));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "count " << count << " was queued";
    EXPECT_EQ(f.get().error, ErrorCode::kBadRequest) << "count " << count;
  }
}

// (c) Graceful drain: shutdown() completes everything already accepted,
// then admission rejects with "draining".
TEST(Serve, GracefulDrainCompletesAccepted) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  std::vector<std::future<GenResponse>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(server.submit(sample_req(1 + i, 10 + i)));
  server.shutdown();
  for (auto& f : futs) {
    GenResponse resp = f.get();
    EXPECT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.patterns.size(), 1u);
  }
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(server.submit(sample_req(9, 9)).get().error, ErrorCode::kDraining);
}

// shutdown() straight after start() races each executor into its first
// wait on the shard's condition variable; a wakeup lost there leaves
// shutdown() joining a worker that never wakes. The race window is narrow,
// so the test runs many rounds, and a watchdog turns a hang into a failure
// (the hung worker cannot be joined, so the process exits).
TEST(Serve, ShutdownRightAfterStartNeverHangs) {
  auto registry = std::make_shared<ModelRegistry>();
  constexpr int kRounds = 20000;
  std::atomic<int> done{0};
  std::thread rounds([&] {
    for (int i = 0; i < kRounds; ++i) {
      GenerationServer server(registry);
      server.start();
      server.shutdown();
      done.store(i + 1);
    }
  });
  int seen = -1;
  auto progress = std::chrono::steady_clock::now();
  while (done.load() < kRounds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (const int d = done.load(); d != seen) {
      seen = d;
      progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - progress >
               std::chrono::seconds(10)) {
      std::fprintf(stderr, "shutdown hung after %d start/shutdown rounds\n",
                   d);
      std::_Exit(1);
    }
  }
  rounds.join();
}

// Cancelling a queued request resolves it immediately; the rest proceed.
TEST(Serve, CancelQueued) {
  auto registry = tiny_registry();
  GenerationServer server(registry);  // not started: both stay queued
  auto f1 = server.submit(sample_req(1, 1));
  auto f2 = server.submit(sample_req(2, 2));
  EXPECT_TRUE(server.cancel(2));
  EXPECT_FALSE(server.cancel(42));  // unknown id
  EXPECT_EQ(f2.get().error, ErrorCode::kCancelled);
  server.shutdown();
  EXPECT_TRUE(f1.get().ok());
}

// Registry hot-swap: reloading a key bumps the generation; handles taken
// before the swap stay valid (in-flight batches keep their weights).
TEST(Serve, RegistryHotSwap) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr old_entry = registry->get("t");
  ASSERT_EQ(old_entry->generation, 1);
  ModelSpec spec = tiny_spec();
  spec.init_seed = 0xBEEF;  // different weights
  registry->load(spec);
  ModelRegistry::EntryPtr new_entry = registry->get("t");
  EXPECT_EQ(new_entry->generation, 2);
  EXPECT_NE(old_entry.get(), new_entry.get());
  EXPECT_EQ(old_entry->cfg.clip_size, 16);  // old handle still usable
}

// Satellite: config validation rejects nonsense with typed errors.
TEST(Serve, ConfigValidation) {
  PatternPaintConfig cfg = sd1_config();
  cfg.clip_size = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = sd1_config();
  cfg.ddpm.T = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = sd1_config();
  cfg.pretrain_lr = -1.0f;
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_NO_THROW(sd1_config().validate());

  ModelSpec spec = tiny_spec();
  spec.clip_size = 3;  // not a multiple of 4
  ModelRegistry registry;
  EXPECT_THROW(registry.load(spec), ConfigError);
  // time_dim 2 makes the sinusoid frequencies NaN; an odd one cannot split
  // into sin/cos halves.
  for (int time_dim : {2, 3}) {
    cfg = sd1_config();
    cfg.ddpm.unet.time_dim = time_dim;
    EXPECT_THROW(cfg.validate(), ConfigError) << "time_dim " << time_dim;
    spec = tiny_spec();
    spec.time_dim = time_dim;
    EXPECT_THROW(registry.load(spec), ConfigError) << "time_dim " << time_dim;
  }
}

// Satellite: the stats dump is written atomically (no .tmp left behind,
// and the file is complete, parseable JSON).
TEST(Serve, StatsDumpAtomic) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  server.submit(sample_req(1, 1));
  server.shutdown();
  std::string path = ::testing::TempDir() + "serve_stats.json";
  ASSERT_TRUE(server.write_stats(path));
  std::string text;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    fclose(f);
  }
  std::string err;
  obs::Json j = obs::Json::parse(text, &err);
  ASSERT_TRUE(j.is_object()) << err;
  EXPECT_DOUBLE_EQ(j.find("completed")->as_number(), 1.0);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// (d) The NDJSON pipe transport with two concurrent clients sharing one
// pipe pair: responses are single atomic line writes demultiplexed by id,
// and each client's patterns match its solo sequential reference.
TEST(Serve, PipeTransportConcurrentClients) {
  auto registry = tiny_registry();
  ModelRegistry::EntryPtr entry = registry->get("t");
  GenerationServer server(registry);

  int c2s[2], s2c[2];  // client->server requests, server->client responses
  ASSERT_EQ(pipe(c2s), 0);
  ASSERT_EQ(pipe(s2c), 0);
  std::thread serve_thread([&] {
    serve_stream(c2s[0], s2c[1], server, *registry);
    ::close(c2s[0]);
    ::close(s2c[1]);
  });

  const int per_client = 3;
  auto client = [&](std::uint64_t base) {
    for (int i = 0; i < per_client; ++i) {
      obs::Json req = obs::Json::object();
      req.set("id", obs::Json(base + i));
      req.set("op", obs::Json("sample"));
      req.set("model", obs::Json("t"));
      req.set("seed", obs::Json(base + i));
      ASSERT_TRUE(write_line_fd(c2s[1], req.dump()));
    }
  };
  std::thread a(client, 100), b(client, 200);
  a.join();
  b.join();
  ::close(c2s[1]);  // EOF: transport drains the server and exits

  LineReader reader(s2c[0]);
  std::string line;
  std::map<std::uint64_t, Raster> got;
  while (reader.next(line)) {
    if (line.empty()) continue;
    obs::Json j = obs::Json::parse(line);
    ASSERT_TRUE(j.is_object()) << line;
    std::uint64_t id = 0;
    ASSERT_TRUE(get_u64(j, "id", 0, &id));
    ASSERT_TRUE(j.find("ok")->as_bool()) << line;
    Raster r;
    ASSERT_TRUE(raster_from_json(j.find("patterns")->at(0), &r));
    got[id] = r;
  }
  serve_thread.join();
  ::close(s2c[0]);

  ASSERT_EQ(got.size(), 2u * per_client);
  for (const auto& kv : got) {
    std::vector<Raster> ref =
        sequential_reference(entry, sample_req(kv.first, kv.first));
    EXPECT_EQ(kv.second, ref.at(0)) << "id " << kv.first;
  }
}

// --- Live telemetry ---------------------------------------------------------

// The metrics/health wire ops return the live-scrape payloads: a tagged
// registry snapshot with this server's rolling windows, and the rolling
// health verdict. Sent mid-session over the same pipe as generation work.
// Once every reply is in, the rolling e2e window must hold exactly one
// observation per completed sample, and its p95 must match the replies'
// own e2e_ms to within the histogram's one-bucket accuracy.
TEST(Serve, MetricsAndHealthWireOps) {
  auto registry = tiny_registry();
  GenerationServer server(registry);
  int c2s[2], s2c[2];
  ASSERT_EQ(pipe(c2s), 0);
  ASSERT_EQ(pipe(s2c), 0);
  std::thread serve_thread([&] {
    serve_stream(c2s[0], s2c[1], server, *registry);
    ::close(c2s[0]);
    ::close(s2c[1]);
  });
  // Mixed schedules, so the replies' e2e times spread over several buckets.
  const int kSamples = 24;
  const int kStepsCycle[] = {2, 4, 8};
  for (int i = 0; i < kSamples; ++i) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  R"({"id":%d,"op":"sample","model":"t","seed":%d,"steps":%d})",
                  10 + i, i, kStepsCycle[i % 3]);
    write_line_fd(c2s[1], line);
    if (i == kSamples / 2) {
      write_line_fd(c2s[1], R"({"id":2,"op":"metrics"})");
      write_line_fd(c2s[1], R"({"id":3,"op":"health"})");
    }
  }
  ::close(c2s[1]);

  LineReader reader(s2c[0]);
  std::map<std::uint64_t, obs::Json> by_id;
  std::string line;
  while (reader.next(line)) {
    obs::Json j = obs::Json::parse(line);
    ASSERT_TRUE(j.is_object()) << line;
    std::uint64_t id = 0;
    get_u64(j, "id", 0, &id);
    by_id[id] = std::move(j);
  }
  serve_thread.join();
  ::close(s2c[0]);

  ASSERT_EQ(by_id.size(), 2u + kSamples);
  std::vector<double> e2e;
  for (int i = 0; i < kSamples; ++i) {
    const obs::Json& reply = by_id[10 + i];
    bool ok = false;
    ASSERT_TRUE(get_bool(reply, "ok", false, &ok) && ok) << reply.dump();
    e2e.push_back(reply.find("e2e_ms")->as_number());
  }
  // Nearest-rank p95, the rank the histogram estimator uses.
  std::sort(e2e.begin(), e2e.end());
  const double exact_p95 =
      e2e[static_cast<std::size_t>(std::ceil(0.95 * e2e.size())) - 1];
  const obs::Json snap = server.metrics_json();
  const obs::Json* rolled = snap.find("rolling")
                                ->find("long")
                                ->find("histograms")
                                ->find("serve.e2e_ms");
  ASSERT_NE(rolled, nullptr);
  EXPECT_EQ(rolled->find("count")->as_number(), static_cast<double>(kSamples));
  const double rolled_p95 = rolled->find("p95")->as_number();
  ASSERT_GT(rolled_p95, 0.0);
  ASSERT_GT(exact_p95, 0.0);
  EXPECT_LE(std::max(rolled_p95, exact_p95) / std::min(rolled_p95, exact_p95),
            obs::Histogram::bucket_ratio() * 1.10)
      << "rolling p95 " << rolled_p95 << " ms vs exact " << exact_p95 << " ms";

  const obs::Json* metrics = by_id[2].find("metrics");
  ASSERT_NE(metrics, nullptr) << by_id[2].dump();
  EXPECT_EQ(metrics->find("snapshot")->as_string(), "pp.metrics.v1");
  EXPECT_TRUE(metrics->find("metrics")->is_object());
  EXPECT_TRUE(metrics->find("trace")->find("dropped_spans")->is_number());
  const obs::Json* rolling = metrics->find("rolling");
  ASSERT_NE(rolling, nullptr);
  for (const char* win : {"short", "long"}) {
    const obs::Json* w = rolling->find(win);
    ASSERT_NE(w, nullptr) << win;
    EXPECT_TRUE(w->find("histograms")->find("serve.e2e_ms")->is_object());
    EXPECT_TRUE(w->find("counters")->find("serve.accepted")->is_object());
  }

  const obs::Json* health = by_id[3].find("health");
  ASSERT_NE(health, nullptr) << by_id[3].dump();
  EXPECT_EQ(health->find("status")->as_string(), "ok");
  EXPECT_TRUE(health->find("accepting")->as_bool());
  EXPECT_FALSE(health->find("overloaded")->as_bool());
  EXPECT_TRUE(health->find("queue_depth")->is_number());
  EXPECT_TRUE(health->find("max_queue")->is_number());
  EXPECT_TRUE(health->find("error_rate")->is_number());
  EXPECT_TRUE(health->find("requests_per_s")->is_number());
}

// The overload latch trips when the queue crosses 80% of max_queue and the
// server stops being "ok"; draining wins once shutdown begins.
TEST(Serve, HealthOverloadLatchAndDraining) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.max_queue = 5;
  GenerationServer server(registry, cfg);  // not started: requests pile up
  std::vector<std::future<GenResponse>> futs;
  for (int i = 0; i < 4; ++i)  // 4/5 = 80% -> trips the latch
    futs.push_back(server.submit(sample_req(i + 1, i + 1)));
  obs::Json h = server.health_json();
  EXPECT_EQ(h.find("status")->as_string(), "overloaded");
  EXPECT_TRUE(h.find("overloaded")->as_bool());
  EXPECT_TRUE(h.find("accepting")->as_bool());  // still admitting
  EXPECT_DOUBLE_EQ(h.find("queue_depth")->as_number(), 4.0);

  server.shutdown();  // runs the queue dry
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  h = server.health_json();
  EXPECT_EQ(h.find("status")->as_string(), "draining");
  EXPECT_FALSE(h.find("accepting")->as_bool());
  // Queue back under 50% and no rolling errors: the latch released.
  EXPECT_FALSE(h.find("overloaded")->as_bool());
}

// Each server's telemetry counts its own traffic only: two servers on one
// registry, B rejects every request (unknown model), and A stays idle. A's
// health, rolling windows and stats must read no traffic; B's read all of
// it.
TEST(Serve, TelemetryIgnoresAnotherServersTraffic) {
  auto registry = tiny_registry();
  GenerationServer a(registry);
  GenerationServer b(registry);
  const int kRejects = 4;
  for (int i = 0; i < kRejects; ++i) {
    GenRequest req = sample_req(i + 1, i + 1);
    req.model = "ghost";
    EXPECT_EQ(b.submit(std::move(req)).get().error, ErrorCode::kUnknownModel);
  }

  const obs::Json ha = a.health_json();
  EXPECT_EQ(ha.find("status")->as_string(), "ok");
  EXPECT_DOUBLE_EQ(ha.find("error_rate")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(ha.find("requests_per_s")->as_number(), 0.0);
  const obs::Json hb = b.health_json();
  EXPECT_EQ(hb.find("status")->as_string(), "overloaded");
  EXPECT_DOUBLE_EQ(hb.find("error_rate")->as_number(), 1.0);

  const auto rolled = [](const GenerationServer& s, const char* win,
                         const char* name) {
    return s.metrics_json()
        .find("rolling")
        ->find(win)
        ->find("counters")
        ->find(name)
        ->find("count")
        ->as_number();
  };
  for (const char* win : {"short", "long"}) {
    EXPECT_EQ(rolled(a, win, "serve.rejected"), 0.0) << win;
    EXPECT_EQ(rolled(a, win, "serve.accepted"), 0.0) << win;
    EXPECT_EQ(rolled(b, win, "serve.rejected"), kRejects) << win;
    EXPECT_EQ(rolled(b, win, "serve.accepted"), 0.0) << win;
  }
  EXPECT_EQ(a.stats_json().find("rejected")->as_number(), 0.0);
  EXPECT_EQ(b.stats_json().find("rejected")->as_number(), kRejects);
}

/// Reads the wide-event log back as parsed JSON lines.
std::vector<obs::Json> read_reqlog(const std::string& path) {
  std::vector<obs::Json> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string err;
    obs::Json j = obs::Json::parse(line, &err);
    EXPECT_TRUE(j.is_object()) << err << ": " << line;
    lines.push_back(std::move(j));
  }
  return lines;
}

// Every request that enters submit() gets exactly one wide-event line —
// completions AND admission rejects — with the full schema.
TEST(Serve, RequestLogAccountsEveryRequest) {
  const std::string path = ::testing::TempDir() + "serve_reqlog.ndjson";
  std::remove(path.c_str());
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.max_queue = 2;
  cfg.request_log = path;
  GenerationServer server(registry, cfg);  // not started: queue fills

  std::vector<std::future<GenResponse>> futs;
  futs.push_back(server.submit(sample_req(1, 1)));
  futs.push_back(server.submit(sample_req(2, 2)));
  futs.push_back(server.submit(sample_req(3, 3)));  // queue_full
  GenRequest ghost = sample_req(4, 4);
  ghost.model = "ghost";                            // unknown_model
  futs.push_back(server.submit(std::move(ghost)));
  server.shutdown();
  for (auto& f : futs) f.get();

  EXPECT_EQ(server.request_log().lines_written(), 4u);
  std::vector<obs::Json> lines = read_reqlog(path);
  ASSERT_EQ(lines.size(), 4u);
  std::map<std::string, int> outcomes;
  for (const obs::Json& j : lines) {
    EXPECT_EQ(j.find("event")->as_string(), "serve.request");
    for (const char* key : {"ts_ms", "id", "seed", "count", "steps", "eta",
                            "queue_ms", "run_ms", "e2e_ms", "step_batches",
                            "batch_peak"})
      EXPECT_TRUE(j.find(key) && j.find(key)->is_number()) << key;
    for (const char* key : {"op", "model", "outcome", "code"})
      EXPECT_TRUE(j.find(key) && j.find(key)->is_string()) << key;
    EXPECT_TRUE(j.find("joined_running")->is_bool());
    EXPECT_EQ(j.find("precision"), nullptr);  // fp32 is the only tier
    ++outcomes[j.find("outcome")->as_string()];
  }
  EXPECT_EQ(outcomes["ok"], 2);
  EXPECT_EQ(outcomes["rejected"], 2);  // queue_full + unknown_model
  std::remove(path.c_str());
}

// Size rotation: the active file rolls to .1 when it would pass
// kRotateBytes; lines_written() counts across rotations.
TEST(Serve, RequestLogRotation) {
  const std::string path = ::testing::TempDir() + "serve_reqlog_rot.ndjson";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  RequestLog log(path);
  obs::Json line = obs::Json::object();
  line.set("event", obs::Json("serve.request"));
  line.set("pad", obs::Json(std::string(64 << 10, 'x')));
  // 160 lines of about 64 KiB: about 2.5x the threshold, so the log
  // rotates twice.
  const int kLines = 160;
  for (int i = 0; i < kLines; ++i) log.write(line);
  EXPECT_EQ(log.lines_written(), static_cast<std::uint64_t>(kLines));
  std::vector<obs::Json> active = read_reqlog(path);
  std::vector<obs::Json> rotated = read_reqlog(path + ".1");
  EXPECT_GE(active.size(), 1u);
  EXPECT_GE(rotated.size(), 1u);
  EXPECT_LT(active.size() + rotated.size(), static_cast<std::size_t>(kLines));
  // Disk footprint stays bounded at ~2x kRotateBytes (active + one old).
  std::ifstream a(path, std::ios::binary | std::ios::ate);
  std::ifstream r(path + ".1", std::ios::binary | std::ios::ate);
  EXPECT_LE(static_cast<std::uint64_t>(a.tellg()), kRotateBytes);
  EXPECT_LE(static_cast<std::uint64_t>(r.tellg()), kRotateBytes);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

// Request-scoped tracing: each request's serve.request span carries
// corr = request id, and its step batches emit serve.step flow points with
// the same corr — one per step batch the request participated in.
TEST(Serve, TracePropagatesRequestContext) {
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const std::string path = ::testing::TempDir() + "serve_trace_reqlog.ndjson";
  std::remove(path.c_str());
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.request_log = path;
  GenerationServer server(registry, cfg);
  server.start();
  GenRequest req = sample_req(77, 5);
  req.steps = 4;
  EXPECT_TRUE(server.submit(std::move(req)).get().ok());
  server.shutdown();

  int request_spans = 0, flow_points = 0;
  for (const obs::TraceEventView& e : obs::trace_events()) {
    if (e.flow_point && e.corr == 77) {
      ++flow_points;
      EXPECT_EQ(e.name, std::string("serve.step"));
    }
    if (!e.flow_point && e.corr == 77) {
      ++request_spans;
      EXPECT_EQ(e.name, std::string("serve.request"));
    }
  }
  EXPECT_EQ(request_spans, 1);
  std::vector<obs::Json> lines = read_reqlog(path);
  ASSERT_EQ(lines.size(), 1u);
  // One flow point per step batch, as accounted by the wide event.
  EXPECT_EQ(flow_points,
            static_cast<int>(lines[0].find("step_batches")->as_number()));
  EXPECT_GE(flow_points, 4);  // a 4-step solo request steps >= 4 times
  obs::set_trace_enabled(false);
  obs::reset_trace();
  std::remove(path.c_str());
}

// The transport maps malformed requests and invalid load specs to
// structured error responses instead of dying.
TEST(Serve, TransportStructuredErrors) {
  auto registry = std::make_shared<ModelRegistry>();
  GenerationServer server(registry);
  int c2s[2], s2c[2];
  ASSERT_EQ(pipe(c2s), 0);
  ASSERT_EQ(pipe(s2c), 0);
  std::thread serve_thread([&] {
    serve_stream(c2s[0], s2c[1], server, *registry);
    ::close(c2s[0]);
    ::close(s2c[1]);
  });
  write_line_fd(c2s[1], "this is not json");
  write_line_fd(c2s[1],
                R"({"id":1,"op":"load","model":"x","clip":3})");  // clip%4!=0
  write_line_fd(c2s[1], R"({"id":2,"op":"sample","model":"ghost"})");
  write_line_fd(c2s[1], R"({"id":3,"op":"frobnicate"})");
  ::close(c2s[1]);

  LineReader reader(s2c[0]);
  std::map<std::uint64_t, std::string> codes;
  std::string line;
  while (reader.next(line)) {
    obs::Json j = obs::Json::parse(line);
    ASSERT_TRUE(j.is_object()) << line;
    std::uint64_t id = 0;
    get_u64(j, "id", 0, &id);
    const obs::Json* err = j.find("error");
    ASSERT_NE(err, nullptr) << line;
    codes[id] = err->find("code")->as_string();
  }
  serve_thread.join();
  ::close(s2c[0]);
  EXPECT_EQ(codes[0], "bad_request");      // unparseable line
  EXPECT_EQ(codes[1], "invalid_config");   // failed validate()
  EXPECT_EQ(codes[2], "unknown_model");
  EXPECT_EQ(codes[3], "bad_request");      // unknown op
}

}  // namespace
}  // namespace pp::serve
