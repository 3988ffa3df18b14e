// Tests for schedules, the UNet, raster<->tensor conversion and the DDPM
// train/inpaint loops (tiny sizes: these run in seconds on CPU).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>

#if defined(__GLIBC__) && defined(__linux__)
#include <sys/resource.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diffusion/convert.hpp"
#include "diffusion/ddpm.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"
#include "nn/simd.hpp"

namespace pp {
namespace {

TEST(Schedule, LinearBasicInvariants) {
  auto s = DiffusionSchedule::linear(100);
  ASSERT_EQ(s.T, 100);
  ASSERT_EQ(s.beta.size(), 100u);
  for (int t = 0; t < 100; ++t) {
    EXPECT_GT(s.beta[static_cast<std::size_t>(t)], 0.0f);
    EXPECT_LT(s.beta[static_cast<std::size_t>(t)], 1.0f);
    if (t > 0) {
      EXPECT_GE(s.beta[static_cast<std::size_t>(t)], s.beta[static_cast<std::size_t>(t - 1)]);
      EXPECT_LT(s.alpha_bar[static_cast<std::size_t>(t)],
                s.alpha_bar[static_cast<std::size_t>(t - 1)]);
    }
    EXPECT_NEAR(s.sqrt_ab[static_cast<std::size_t>(t)] * s.sqrt_ab[static_cast<std::size_t>(t)] +
                    s.sqrt_1m_ab[static_cast<std::size_t>(t)] *
                        s.sqrt_1m_ab[static_cast<std::size_t>(t)],
                1.0f, 1e-5f);
  }
  // Late alpha_bar should be tiny (x_T ~ pure noise, Eq. 3 of the paper).
  EXPECT_LT(s.alpha_bar.back(), 0.05f);
}

TEST(Schedule, CosineInvariants) {
  auto s = DiffusionSchedule::cosine(200);
  for (int t = 1; t < 200; ++t)
    EXPECT_LT(s.alpha_bar[static_cast<std::size_t>(t)],
              s.alpha_bar[static_cast<std::size_t>(t - 1)]);
  EXPECT_LT(s.alpha_bar.back(), 0.05f);
  EXPECT_GT(s.alpha_bar.front(), 0.9f);
}

TEST(Schedule, AlphaBarAtConvention) {
  auto s = DiffusionSchedule::linear(10);
  EXPECT_FLOAT_EQ(s.alpha_bar_at(-1), 1.0f);
  EXPECT_FLOAT_EQ(s.alpha_bar_at(0), s.alpha_bar[0]);
}

TEST(Schedule, RejectsBadArgs) {
  EXPECT_THROW(DiffusionSchedule::linear(1), Error);
  EXPECT_THROW(DiffusionSchedule::linear(10, 0.02f, 0.01f), Error);
}

UNetConfig tiny_unet() {
  UNetConfig cfg;
  cfg.base_channels = 8;
  cfg.time_dim = 16;
  cfg.groups = 4;
  return cfg;
}

TEST(UNet, ForwardShapeAndZeroInit) {
  Rng rng(41);
  UNet net(tiny_unet(), rng);
  EXPECT_GT(net.parameter_count(), 1000u);
  nn::Tensor x = nn::Tensor::randn({2, 3, 16, 16}, rng);
  auto y = net.forward(x, {0.1f, 0.9f});
  ASSERT_EQ(y->value.shape(), (std::vector<int>{2, 1, 16, 16}));
  // Zero-initialized head => exact zero output at init.
  EXPECT_EQ(y->value.max_abs(), 0.0f);
}

TEST(UNet, RejectsBadInput) {
  Rng rng(43);
  UNet net(tiny_unet(), rng);
  EXPECT_THROW(net.forward(nn::Tensor({1, 2, 16, 16}), {0.5f}), Error);
  EXPECT_THROW(net.forward(nn::Tensor({1, 3, 18, 18}), {0.5f}), Error);
  EXPECT_THROW(net.forward(nn::Tensor({2, 3, 16, 16}), {0.5f}), Error);
}

TEST(UNet, TimestepChangesOutputAfterTraining) {
  // After a couple of gradient steps the time embedding must matter.
  Rng rng(47);
  UNet net(tiny_unet(), rng);
  nn::Adam opt(net.parameters(), 1e-2f);
  nn::Tensor x = nn::Tensor::randn({1, 3, 16, 16}, rng);
  nn::Tensor tgt = nn::Tensor::randn({1, 1, 16, 16}, rng);
  for (int i = 0; i < 3; ++i) {
    opt.zero_grad();
    nn::backward(nn::mse_loss(net.forward(x, {0.5f}), nn::make_input(tgt)));
    opt.step();
  }
  auto y0 = net.forward(x, {0.05f});
  auto y1 = net.forward(x, {0.95f});
  nn::Tensor diff = y0->value;
  diff.add_scaled(y1->value, -1.0f);
  EXPECT_GT(diff.max_abs(), 1e-6f);
}

TEST(UNet, DeterministicForward) {
  Rng rng(53);
  UNet net(tiny_unet(), rng);
  nn::Adam opt(net.parameters(), 1e-2f);
  nn::Tensor x = nn::Tensor::randn({1, 3, 16, 16}, rng);
  opt.zero_grad();
  nn::backward(nn::mse_loss(net.forward(x, {0.3f}),
                            nn::make_input(nn::Tensor({1, 1, 16, 16}))));
  opt.step();
  auto a = net.forward(x, {0.3f});
  auto b = net.forward(x, {0.3f});
  for (std::size_t i = 0; i < a->value.numel(); ++i)
    EXPECT_EQ(a->value[i], b->value[i]);
}

TEST(UNet, AttentionVariantForwardAndTraining) {
  Rng rng(57);
  UNetConfig cfg = tiny_unet();
  UNetConfig cfg_attn = cfg;
  cfg_attn.attention = true;
  UNet plain(cfg, rng);
  UNet attn(cfg_attn, rng);
  EXPECT_GT(attn.parameter_count(), plain.parameter_count());
  nn::Tensor x = nn::Tensor::randn({1, 3, 16, 16}, rng);
  // Zero-init heads: both start at zero output.
  EXPECT_EQ(attn.forward(x, {0.5f})->value.max_abs(), 0.0f);
  // One training step flows gradients through the attention block.
  nn::Adam opt(attn.parameters(), 1e-2f);
  nn::Tensor tgt = nn::Tensor::randn({1, 1, 16, 16}, rng);
  opt.zero_grad();
  nn::backward(nn::mse_loss(attn.forward(x, {0.5f}), nn::make_input(tgt)));
  opt.step();
  auto y = attn.forward(x, {0.5f});
  EXPECT_GT(y->value.max_abs(), 0.0f);
  for (std::size_t i = 0; i < y->value.numel(); ++i)
    EXPECT_TRUE(std::isfinite(y->value[i]));
}

TEST(UNet, InferMatchesForwardBitExact) {
  // infer() runs the same kernels as forward() in the same order, so the
  // outputs must agree exactly, not just approximately.
  Rng rng(61);
  UNet net(tiny_unet(), rng);
  // Train a little so the head is no longer all-zero.
  nn::Adam opt(net.parameters(), 1e-2f);
  nn::Tensor x = nn::Tensor::randn({2, 3, 16, 16}, rng);
  nn::Tensor tgt = nn::Tensor::randn({2, 1, 16, 16}, rng);
  for (int i = 0; i < 2; ++i) {
    opt.zero_grad();
    nn::backward(
        nn::mse_loss(net.forward(x, {0.2f, 0.8f}), nn::make_input(tgt)));
    opt.step();
  }
  auto ref = net.forward(x, {0.2f, 0.8f});
  nn::Tensor fast = net.infer(x, {0.2f, 0.8f});
  ASSERT_EQ(ref->value.shape(), fast.shape());
  EXPECT_GT(fast.max_abs(), 0.0f);
  for (std::size_t i = 0; i < fast.numel(); ++i)
    EXPECT_EQ(ref->value[i], fast[i]) << "index " << i;
}

TEST(UNet, InferMatchesForwardWithAttention) {
  Rng rng(63);
  UNetConfig cfg = tiny_unet();
  cfg.attention = true;
  UNet net(cfg, rng);
  nn::Adam opt(net.parameters(), 1e-2f);
  nn::Tensor x = nn::Tensor::randn({1, 3, 16, 16}, rng);
  nn::Tensor tgt = nn::Tensor::randn({1, 1, 16, 16}, rng);
  opt.zero_grad();
  nn::backward(nn::mse_loss(net.forward(x, {0.4f}), nn::make_input(tgt)));
  opt.step();
  auto ref = net.forward(x, {0.4f});
  nn::Tensor fast = net.infer(x, {0.4f});
  for (std::size_t i = 0; i < fast.numel(); ++i)
    EXPECT_EQ(ref->value[i], fast[i]) << "index " << i;
}

TEST(UNet, InferAllocatesNoGraphNodes) {
  Rng rng(67);
  UNet net(tiny_unet(), rng);
  nn::Tensor x = nn::Tensor::randn({1, 3, 16, 16}, rng);
  std::size_t before = nn::node_allocation_count();
  net.infer(x, {0.5f});
  EXPECT_EQ(nn::node_allocation_count(), before);
}

TEST(UNet, RepeatedInferKeepsItsHeapMapped) {
  // Heap policy (DESIGN.md): glibc keeps the activations and kernel
  // scratch of one infer mapped for the next, so a warm call takes no
  // minor page faults. Under glibc's adaptive thresholds it took about 100
  // per row per call. Checked under every ISA: scalar and AVX2 take a col
  // buffer for every 3x3 conv, AVX-512 only for the stride-2 ones.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator ignores mallopt";
#elif !defined(__GLIBC__) || !defined(__linux__)
  GTEST_SKIP() << "the heap policy is glibc on Linux only";
#else
  Rng rng(73);
  UNetConfig cfg;  // sd1
  cfg.base_channels = 12;
  cfg.time_dim = 24;
  cfg.groups = 4;
  UNet net(cfg, rng);
  constexpr int kRows = 8;
  constexpr int kCalls = 20;
  const nn::Tensor x = nn::Tensor::randn({kRows, 3, 32, 32}, rng);
  const std::vector<float> t(kRows, 0.5f);
  auto minor_faults = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<long>(ru.ru_minflt);
  };
  for (nn::Isa isa : {nn::Isa::kScalar, nn::Isa::kAvx2, nn::Isa::kAvx512}) {
    if (!nn::isa_usable(isa)) continue;
    nn::force_isa(isa);
    // One warm-up call grows the heap to a call's high-water mark, which
    // the policy then keeps mapped for every later call.
    net.infer(x, t);
    const long before = minor_faults();
    for (int i = 0; i < kCalls; ++i) net.infer(x, t);
    const long faults = minor_faults() - before;
    nn::clear_forced_isa();
    EXPECT_LT(faults, kRows * kCalls)
        << nn::isa_name(isa) << ": " << faults << " minor faults over "
        << kCalls << " batch-" << kRows << " calls";
  }
#endif
}

TEST(Convert, RasterTensorRoundTrip) {
  Rng rng(59);
  std::vector<Raster> batch;
  for (int i = 0; i < 3; ++i) {
    Raster r(8, 8);
    for (auto& v : r.data()) v = rng.bernoulli(0.5);
    batch.push_back(r);
  }
  nn::Tensor t = rasters_to_tensor(batch);
  ASSERT_EQ(t.shape(), (std::vector<int>{3, 1, 8, 8}));
  EXPECT_TRUE(t.max_abs() == 1.0f);
  auto back = tensor_to_rasters(t);
  ASSERT_EQ(back.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(back[static_cast<std::size_t>(i)], batch[static_cast<std::size_t>(i)]);
}

TEST(Convert, MaskAndRepeat) {
  Raster m(4, 4);
  m.fill_rect(Rect{0, 0, 2, 4}, 1);
  nn::Tensor mt = mask_to_tensor(m);
  EXPECT_FLOAT_EQ(mt.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mt.at4(0, 0, 0, 3), 0.0f);
  nn::Tensor rep = repeat_batch(mt, 3);
  ASSERT_EQ(rep.shape(), (std::vector<int>{3, 1, 4, 4}));
  EXPECT_FLOAT_EQ(rep.at4(2, 0, 0, 0), 1.0f);
  EXPECT_THROW(repeat_batch(rep, 2), Error);
  EXPECT_THROW(rasters_to_tensor({}), Error);
  EXPECT_THROW(rasters_to_tensor({Raster(2, 2), Raster(3, 3)}), Error);
}

DdpmConfig tiny_ddpm() {
  DdpmConfig cfg;
  cfg.unet = tiny_unet();
  cfg.T = 50;
  cfg.sample_steps = 8;
  return cfg;
}

TEST(Ddpm, TrainingReducesLoss) {
  Rng rng(61);
  Ddpm model(tiny_ddpm(), rng);
  nn::Adam opt(model.parameters(), 2e-3f);
  // Tiny dataset: vertical bars on 16x16.
  std::vector<Raster> data;
  for (int i = 0; i < 4; ++i) {
    Raster r(16, 16);
    r.fill_rect(Rect{2 + 3 * i, 0, 5 + 3 * i, 16}, 1);
    data.push_back(r);
  }
  nn::Tensor x0 = rasters_to_tensor(data);
  nn::Tensor mask = nn::Tensor::full({4, 1, 16, 16}, 1.0f);
  float first = 0, last = 0;
  const int steps = 60;
  float sum_head = 0, sum_tail = 0;
  for (int s = 0; s < steps; ++s) {
    float loss = model.train_step(x0, mask, opt, rng);
    if (s == 0) first = loss;
    if (s < 10) sum_head += loss;
    if (s >= steps - 10) sum_tail += loss;
    last = loss;
  }
  (void)first;
  (void)last;
  EXPECT_LT(sum_tail, sum_head) << "loss did not trend downward";
}

TEST(Ddpm, InpaintPreservesKnownRegion) {
  Rng rng(67);
  Ddpm model(tiny_ddpm(), rng);
  Raster base(16, 16);
  base.fill_rect(Rect{6, 0, 10, 16}, 1);
  nn::Tensor known = raster_to_tensor(base);
  Raster mrect(16, 16);
  mrect.fill_rect(Rect{0, 0, 8, 8}, 1);  // regenerate top-left quadrant
  nn::Tensor mask = mask_to_tensor(mrect);
  nn::Tensor out = model.inpaint(known, mask, rng);
  ASSERT_TRUE(out.same_shape(known));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (mask[i] == 0.0f) {
      EXPECT_EQ(out[i], known[i]);
    }
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST(Ddpm, InpaintAllocatesNoGraphNodes) {
  // The sampling loop must stay on the graph-free inference path: zero
  // autograd Node allocations across a full inpaint call.
  Rng rng(69);
  Ddpm model(tiny_ddpm(), rng);
  Raster base(16, 16);
  base.fill_rect(Rect{6, 0, 10, 16}, 1);
  nn::Tensor known = raster_to_tensor(base);
  nn::Tensor mask = nn::Tensor::full({1, 1, 16, 16}, 1.0f);
  std::size_t before = nn::node_allocation_count();
  model.inpaint(known, mask, rng);
  EXPECT_EQ(nn::node_allocation_count(), before);
}

TEST(Ddpm, SampleShapeAndVariation) {
  Rng rng(71);
  Ddpm model(tiny_ddpm(), rng);
  nn::Tensor s = model.sample(2, 16, 16, rng);
  ASSERT_EQ(s.shape(), (std::vector<int>{2, 1, 16, 16}));
  // Two stochastic samples from an untrained model should differ.
  float diff = 0;
  for (int i = 0; i < 16 * 16; ++i)
    diff += std::fabs(s[static_cast<std::size_t>(i)] - s[static_cast<std::size_t>(256 + i)]);
  EXPECT_GT(diff, 1e-3f);
}

TEST(Ddpm, CheckpointRoundTrip) {
  Rng rng(73);
  Ddpm a(tiny_ddpm(), rng);
  Ddpm b(tiny_ddpm(), rng);  // different init
  auto dir = std::filesystem::temp_directory_path() / "pp_ddpm_ckpt";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "m.bin").string();
  a.save(path);
  EXPECT_TRUE(b.try_load(path));
  auto pa = a.parameters(), pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t k = 0; k < pa[i]->value.numel(); ++k)
      EXPECT_EQ(pa[i]->value[k], pb[i]->value[k]);
  EXPECT_FALSE(b.try_load((dir / "missing.bin").string()));
  std::filesystem::remove_all(dir);
}

TEST(Ddpm, InpaintBatchSplitInvariant) {
  // The determinism contract: for a fixed caller-RNG state, the i-th
  // logical sample is bitwise identical whether the samples run as one
  // batch of 4 or four batches of 1 (inpaint consumes exactly one caller
  // draw per sample and derives all noise from per-sample streams).
  Rng init(67);
  Ddpm model(tiny_ddpm(), init);
  const int n = 4, hw = 16;
  const std::size_t per = static_cast<std::size_t>(hw) * hw;
  nn::Tensor known({n, 1, hw, hw});
  for (int s = 0; s < n; ++s) {
    Raster r(hw, hw);
    r.fill_rect(Rect{2 + 2 * s, 0, 5 + 2 * s, hw}, 1);
    nn::Tensor one = raster_to_tensor(r);
    std::copy_n(one.data(), per, known.data() + static_cast<std::size_t>(s) * per);
  }
  Raster m(hw, hw);
  m.fill_rect(Rect{0, 0, hw / 2, hw}, 1);  // half mask: both RePaint paths
  nn::Tensor mask1 = mask_to_tensor(m);
  nn::Tensor mask({n, 1, hw, hw});
  for (int s = 0; s < n; ++s)
    std::copy_n(mask1.data(), per, mask.data() + static_cast<std::size_t>(s) * per);

  Rng batched_rng(5);
  nn::Tensor batched = model.inpaint(known, mask, batched_rng);

  Rng split_rng(5);
  for (int s = 0; s < n; ++s) {
    nn::Tensor known1({1, 1, hw, hw});
    std::copy_n(known.data() + static_cast<std::size_t>(s) * per, per,
                known1.data());
    nn::Tensor single = model.inpaint(known1, mask1, split_rng);
    for (std::size_t i = 0; i < per; ++i)
      ASSERT_EQ(single[i], batched[static_cast<std::size_t>(s) * per + i])
          << "sample " << s << " pixel " << i;
  }
}

TEST(UNet, InferMixedTimestepsRowwise) {
  // Continuous batching puts samples at DIFFERENT denoising steps into one
  // UNet batch: row i conditioned on t_frac[i] must be bitwise the row a
  // solo call would produce — the time MLP embeds per row and nothing
  // leaks across the batch dimension.
  Rng rng(63);
  UNet net(tiny_unet(), rng);
  nn::Adam opt(net.parameters(), 1e-2f);
  nn::Tensor x = nn::Tensor::randn({3, 3, 16, 16}, rng);
  nn::Tensor tgt = nn::Tensor::randn({3, 1, 16, 16}, rng);
  for (int i = 0; i < 2; ++i) {
    opt.zero_grad();
    nn::backward(nn::mse_loss(net.forward(x, {0.1f, 0.5f, 0.9f}),
                              nn::make_input(tgt)));
    opt.step();
  }
  const std::vector<float> ts = {0.9f, 0.3f, 0.05f};
  nn::Tensor mixed = net.infer(x, ts);
  const std::size_t per = static_cast<std::size_t>(16) * 16;
  for (int s = 0; s < 3; ++s) {
    nn::Tensor row({1, 3, 16, 16});
    std::copy_n(x.data() + static_cast<std::size_t>(s) * 3 * per, 3 * per,
                row.data());
    nn::Tensor solo = net.infer(row, {ts[static_cast<std::size_t>(s)]});
    for (std::size_t i = 0; i < per; ++i)
      ASSERT_EQ(solo[i], mixed[static_cast<std::size_t>(s) * per + i])
          << "row " << s << " pixel " << i;
  }
}

TEST(Ddpm, SamplerParamsValidated) {
  Rng rng(71);
  Ddpm model(tiny_ddpm(), rng);  // T = 50
  nn::Tensor known = nn::Tensor::full({1, 1, 16, 16}, -1.0f);
  nn::Tensor mask = nn::Tensor::full({1, 1, 16, 16}, 1.0f);
  const std::vector<std::uint64_t> bases = {7};
  EXPECT_THROW(model.inpaint(known, mask, bases, SamplerParams{1, -1.0f}),
               ConfigError);
  EXPECT_THROW(model.inpaint(known, mask, bases, SamplerParams{51, -1.0f}),
               ConfigError);
  EXPECT_THROW(model.inpaint(known, mask, bases, SamplerParams{0, 1.5f}),
               ConfigError);
  EXPECT_NO_THROW(model.inpaint(known, mask, bases, SamplerParams{2, 1.0f}));
}

TEST(Ddpm, StepApiMatchesMonolithicUnderAdversarialSchedules) {
  // The continuous-batching invariant at the Ddpm layer: ANY interleaving
  // of join / step / leave produces per-sample bits identical to a
  // monolithic inpaint() of the same (base, params). The schedule below
  // packs three sampler schedules into one state, joins one group two
  // steps late and removes one sample mid-flight.
  Rng init(67);
  Ddpm model(tiny_ddpm(), init);  // default schedule: 8 steps
  const int hw = 16;
  const std::size_t per = static_cast<std::size_t>(hw) * hw;

  auto make_known = [&](int bar) {
    Raster r(hw, hw);
    r.fill_rect(Rect{bar, 0, bar + 3, hw}, 1);
    return raster_to_tensor(r);
  };
  Raster m(hw, hw);
  m.fill_rect(Rect{0, 0, hw / 2, hw}, 1);  // half mask: both RePaint paths
  nn::Tensor mask1 = mask_to_tensor(m);

  auto pack = [&](const std::vector<nn::Tensor>& knowns, nn::Tensor* known,
                  nn::Tensor* mask) {
    const int n = static_cast<int>(knowns.size());
    *known = nn::Tensor({n, 1, hw, hw});
    *mask = nn::Tensor({n, 1, hw, hw});
    for (int s = 0; s < n; ++s) {
      std::copy_n(knowns[static_cast<std::size_t>(s)].data(), per,
                  known->data() + static_cast<std::size_t>(s) * per);
      std::copy_n(mask1.data(), per,
                  mask->data() + static_cast<std::size_t>(s) * per);
    }
  };
  auto group_ref = [&](const std::vector<nn::Tensor>& knowns,
                       const std::vector<std::uint64_t>& bases,
                       SamplerParams params) {
    nn::Tensor known, mask;
    pack(knowns, &known, &mask);
    return model.inpaint(known, mask, bases, params);
  };

  const SamplerParams kDefault{};
  const SamplerParams kFast{3, 0.0f};
  const SamplerParams kSlow{12, 1.0f};
  nn::Tensor refA =
      group_ref({make_known(2), make_known(4)}, {101, 102}, kDefault);
  nn::Tensor refB = group_ref({make_known(6), make_known(8)}, {201, 202}, kFast);
  nn::Tensor refC = group_ref({make_known(10)}, {301}, kSlow);

  InpaintState st;
  auto join_group = [&](const std::vector<nn::Tensor>& knowns,
                        const std::vector<std::uint64_t>& bases,
                        const std::vector<std::uint64_t>& tags,
                        SamplerParams params) {
    nn::Tensor known, mask;
    pack(knowns, &known, &mask);
    model.join(st, known, mask, bases, tags, params);
  };
  std::map<std::uint64_t, nn::Tensor> done;
  auto run_step = [&] {
    for (FinishedSample& f : model.step(st)) done.emplace(f.tag, std::move(f.x));
  };

  join_group({make_known(2), make_known(4)}, {101, 102}, {10, 11}, kDefault);
  join_group({make_known(6), make_known(8)}, {201, 202}, {20, 21}, kFast);
  run_step();
  run_step();                            // two mixed-schedule steps...
  EXPECT_EQ(model.leave(st, {11}), 1u);  // ...then A1 cancels mid-flight...
  join_group({make_known(10)}, {301}, {30}, kSlow);  // ...and C joins late
  int guard = 0;
  while (!st.empty() && ++guard < 64) run_step();
  EXPECT_TRUE(st.empty());

  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done.count(11), 0u);  // the leaver never produced output
  auto expect_rows = [&](std::uint64_t tag, const nn::Tensor& ref, int row) {
    ASSERT_EQ(done.count(tag), 1u);
    const nn::Tensor& got = done[tag];
    for (std::size_t i = 0; i < per; ++i)
      ASSERT_EQ(got[i], ref[static_cast<std::size_t>(row) * per + i])
          << "tag " << tag << " pixel " << i;
  };
  expect_rows(10, refA, 0);
  expect_rows(20, refB, 0);
  expect_rows(21, refB, 1);
  expect_rows(30, refC, 0);
}

namespace {

/// Overwrites one byte of a file in place.
void corrupt_byte(const std::string& path, std::streamoff off, char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(off);
  f.write(&value, 1);
}

/// Truncates a file by `cut` trailing bytes.
void truncate_tail(const std::string& path, std::uintmax_t cut) {
  std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, cut);
  std::filesystem::resize_file(path, size - cut);
}

}  // namespace

TEST(Ddpm, TryLoadRejectsCorruptCheckpoints) {
  Rng rng(91);
  Ddpm trained(tiny_ddpm(), rng);
  auto dir = std::filesystem::temp_directory_path() / "pp_ddpm_corrupt";
  std::filesystem::create_directories(dir);
  std::string good = (dir / "good.bin").string();
  trained.save(good);

  auto expect_rejected = [&](const std::string& path) {
    Rng r2(92);
    Ddpm victim(tiny_ddpm(), r2);
    auto before = victim.parameters();
    std::vector<float> w0(before[0]->value.data(),
                          before[0]->value.data() + before[0]->value.numel());
    // Must return false, not throw, and leave the weights untouched.
    EXPECT_FALSE(victim.try_load(path));
    for (std::size_t i = 0; i < w0.size(); ++i)
      ASSERT_EQ(before[0]->value[i], w0[i]);
  };

  std::string bad_magic = (dir / "magic.bin").string();
  std::filesystem::copy_file(good, bad_magic);
  corrupt_byte(bad_magic, 0, 'X');
  expect_rejected(bad_magic);

  std::string bad_count = (dir / "count.bin").string();
  std::filesystem::copy_file(good, bad_count);
  corrupt_byte(bad_count, 6, 1);  // param count LSB
  expect_rejected(bad_count);

  std::string bad_shape = (dir / "shape.bin").string();
  std::filesystem::copy_file(good, bad_shape);
  corrupt_byte(bad_shape, 14, 0x7f);  // first dim of the first param
  expect_rejected(bad_shape);

  // Truncated final payload: the historical bug — seekg past EOF does not
  // set failbit, so the probe passed and load threw mid-restore.
  std::string truncated = (dir / "trunc.bin").string();
  std::filesystem::copy_file(good, truncated);
  truncate_tail(truncated, 3);
  expect_rejected(truncated);

  // Sanity: the untouched file still loads.
  Rng r3(93);
  Ddpm ok(tiny_ddpm(), r3);
  EXPECT_TRUE(ok.try_load(good));
  std::filesystem::remove_all(dir);
}

TEST(Ddpm, FinetuneStepRuns) {
  Rng rng(79);
  Ddpm model(tiny_ddpm(), rng);
  nn::Adam opt(model.parameters(), 1e-3f);
  nn::Tensor x0 = nn::Tensor::randn({2, 1, 16, 16}, rng);
  for (std::size_t i = 0; i < x0.numel(); ++i) x0[i] = x0[i] > 0 ? 1.0f : -1.0f;
  nn::Tensor mask = nn::Tensor::full({2, 1, 16, 16}, 1.0f);
  float l = model.finetune_step(x0, mask, x0, mask, 0.5f, opt, rng);
  EXPECT_TRUE(std::isfinite(l));
  EXPECT_GT(l, 0.0f);
  // lambda = 0 path (no prior term).
  l = model.finetune_step(x0, mask, x0, mask, 0.0f, opt, rng);
  EXPECT_TRUE(std::isfinite(l));
}

TEST(Ddpm, RejectsBadConfig) {
  Rng rng(83);
  DdpmConfig cfg = tiny_ddpm();
  cfg.sample_steps = 1;
  EXPECT_THROW(Ddpm(cfg, rng), Error);
  cfg = tiny_ddpm();
  cfg.unet.in_channels = 1;
  EXPECT_THROW(Ddpm(cfg, rng), Error);
}

}  // namespace
}  // namespace pp
