// Per-layer metrics of a traced run: self time by layer from the spans the
// program already emits plus the bench.* spans around ppbench's own calls,
// counter deltas over the traced window, and the nn kernel phase.
#include <algorithm>
#include <cstdio>
#include <map>

#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/quant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ppbench.hpp"

namespace ppbench {

using namespace pp;

namespace {

const char* const kCounters[] = {
    "ddpm.inpaint.samples", "ddpm.inpaint.steps", "drc.checks",
    "drc.clean",            "denoise.calls",      "denoise.pixels_repaired",
    "expand.windows",       "expand.waves",       "serve.cache.hits",
    "serve.cache.misses",   "serve.joins",        "serve.repacks"};

/// Span-name prefix -> the layer (module) it belongs to.
const std::pair<const char*, const char*> kLayers[] = {
    {"bench.", "bench"},   {"pp.", "core"},       {"ddpm.", "diffusion"},
    {"unet.", "unet"},     {"nn.", "nn"},         {"denoise.", "denoise"},
    {"drc.", "drc"},       {"select.", "select"}, {"expand.", "expand"},
    {"serve.", "serve"}};

const char* layer_of(const std::string& name) {
  for (const auto& [prefix, layer] : kLayers)
    if (name.rfind(prefix, 0) == 0) return layer;
  return "other";
}

using Span = TraceWindow::Span;

std::vector<Span> collect_spans(std::uint64_t t0, std::uint64_t t1) {
  std::vector<Span> spans;
  for (const obs::TraceEventView& e : obs::trace_events()) {
    // Flow points are markers; serve.request and expand.wave are recorded
    // after the fact over intervals that are not call-stack frames.
    if (e.flow_point || e.name == "serve.request" || e.name == "expand.wave")
      continue;
    Span s;
    s.name = e.name;
    s.tid = e.tid;
    s.depth = e.depth;
    s.start = std::max(e.start_ns, t0);
    s.end = std::min(e.start_ns + e.dur_ns, t1);
    if (s.end <= s.start) continue;
    spans.push_back(std::move(s));
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.depth < b.depth;
  });
  // A span's parent is the innermost earlier span on its thread that
  // encloses it at a smaller depth.
  std::vector<std::size_t> stack;
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& e = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.tid == e.tid && top.depth < e.depth && top.start <= e.start &&
          e.end <= top.end)
        break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      spans[i].parent = spans[stack.back()].name;
      child_s[stack.back()] += e.dur_s();
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i)
    spans[i].self_s = std::max(0.0, spans[i].dur_s() - child_s[i]);
  return spans;
}

void snapshot(std::vector<std::uint64_t>& counts) {
  counts.clear();
  for (const char* c : kCounters)
    counts.push_back(obs::metrics().counter(c).value());
}

}  // namespace

void TraceWindow::start() {
  snapshot(before_);
  obs::reset_trace();
  t0_ns_ = obs::trace_now_ns();
  t0_ = Clock::now();
  obs::set_trace_enabled(true);
}

void TraceWindow::stop() {
  obs::set_trace_enabled(false);
  wall_s_ = seconds_since(t0_);
  spans_ = collect_spans(t0_ns_, obs::trace_now_ns());
  snapshot(after_);
}

std::uint64_t TraceWindow::counter(const std::string& name) const {
  for (std::size_t i = 0; i < std::size(kCounters); ++i)
    if (name == kCounters[i]) return after_[i] - before_[i];
  return 0;
}

double TraceWindow::span_total_s(const std::string& name) const {
  double s = 0.0;
  for (const Span& e : spans_)
    if (e.name == name) s += e.dur_s();
  return s;
}

double TraceWindow::busy_s_of_threads_with(const std::string& name) const {
  std::vector<std::uint32_t> tids;
  for (const Span& e : spans_)
    if (e.name == name) tids.push_back(e.tid);
  double s = 0.0;
  for (const Span& e : spans_)
    if (e.parent.empty() &&
        std::find(tids.begin(), tids.end(), e.tid) != tids.end())
      s += e.dur_s();
  return s;
}

namespace {

/// Per-layer metrics every workload's window yields.
void report_window(const TraceWindow& tw, double row_steps, Outcome& out) {
  const double wall = tw.wall_s();
  auto share = [&](double s) { return wall > 0 ? s / wall : 0.0; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::map<std::string, double> self_by_layer;
  std::uint32_t bench_tid = 0;
  double inpaint_s = 0.0, unet_infer_s = 0.0, conv_s = 0.0;
  for (const Span& e : tw.spans()) {
    self_by_layer[layer_of(e.name)] += e.self_s;
    if (e.name.rfind("bench.", 0) == 0) bench_tid = e.tid;
    if (e.name == "ddpm.inpaint" ||
        (e.name == "ddpm.inpaint.step" && e.parent != "ddpm.inpaint"))
      inpaint_s += e.dur_s();
    if (e.name == "unet.infer") unet_infer_s += e.dur_s();
    if (e.name.rfind("nn.conv2d.", 0) == 0) conv_s += e.dur_s();
  }
  // Coverage: share of the window the workload's thread spent inside spans.
  double covered_s = 0.0;
  for (const Span& e : tw.spans())
    if (e.tid == bench_tid && e.parent.empty()) covered_s += e.dur_s();
  out.metric(out.layers, "trace.coverage", share(covered_s), "ratio");
  out.check(share(covered_s) >= 0.95,
            "trace: spans cover under 95% of the window");
  for (const auto& [prefix, layer] : kLayers)
    out.metric(out.layers, std::string(layer) + ".self_share",
               share(self_by_layer[layer]), "ratio");

  out.metric(out.layers, "diffusion.inpaint_share", share(inpaint_s), "ratio");
  const double steps = static_cast<double>(tw.counter("ddpm.inpaint.steps"));
  out.metric(out.layers, "diffusion.batch_mean", ratio(row_steps, steps),
             "count");
  out.metric(out.layers, "diffusion.unet_us_per_row_step",
             ratio(unet_infer_s * 1e6, row_steps), "us");
  out.metric(out.layers, "nn.conv_share", share(conv_s), "ratio");
  out.metric(out.layers, "core.finish_share",
             share(tw.span_total_s("pp.finish")), "ratio");
  out.metric(out.layers, "drc.clean_ratio",
             ratio(static_cast<double>(tw.counter("drc.clean")),
                   static_cast<double>(tw.counter("drc.checks"))),
             "ratio");
  out.metric(out.layers, "denoise.pixels_repaired_per_clip",
             ratio(static_cast<double>(tw.counter("denoise.pixels_repaired")),
                   static_cast<double>(tw.counter("denoise.calls"))),
             "count");
}

}  // namespace

void publish(const RunReport& r, const TraceWindow* tw, Outcome& out) {
  out.metric(out.e2e, "setup_s", r.setup_s, "s");
  out.metric(out.e2e, "throughput", r.throughput, "1/s");
  out.metric(out.e2e, "latency_ms", r.latency_ms, "ms");
  out.metric(out.e2e, "violations_per_clip", r.quality.violations_per_clip(),
             "count");
  if (!tw) return;
  report_window(*tw, r.row_steps, out);
  const Metric layers[] = {
      {"quality.legal_rate", r.quality.legal_rate(), "ratio"},
      {"quality.h2_bits", r.quality.h2(), "bits"},
      {"diffusion.train_share", r.train_share, "ratio"},
      {"diffusion.forward_share", r.forward_share, "ratio"},
      {"nn.backward_optim_share", r.backward_optim_share, "ratio"},
      {"expand.windows_per_wave", r.windows_per_wave, "count"},
      {"expand.seam_violations_per_window", r.seam_violations_per_window,
       "count"},
      {"serve.queue_share", r.queue_share, "ratio"},
      {"serve.busy_share", r.busy_share, "ratio"},
      {"serve.cache_hit_ratio", r.cache_hit_ratio, "ratio"},
      {"serve.joins_per_request", r.joins_per_request, "count"},
      {"serve.repacks_per_request", r.repacks_per_request, "count"},
      {"serve.net_overhead_share", r.net_overhead_share, "ratio"},
      {"serve.gen_late_share", r.gen_late_share, "ratio"},
      {"serve.p90_over_p50", r.p90_over_p50, "ratio"},
  };
  out.layers.insert(out.layers.end(), std::begin(layers), std::end(layers));
}

namespace {

struct ConvShape {
  int ci, co, k, stride, h;
  int out_h() const { return (h + 2 * (k / 2) - k) / stride + 1; }
  std::string name() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "c%dx%dk%ds%dh%d", ci, co, k, stride, h);
    return buf;
  }
  bool operator==(const ConvShape&) const = default;
};

/// The distinct conv shapes of UNet::infer (diffusion/unet.hpp: stem,
/// ResBlocks at H, H/2, H/4, strided downs, the optional bottleneck
/// attention, upsample convs, 1x1 skips and the head), in execution order.
std::vector<ConvShape> unet_conv_shapes(const UNetConfig& u, int clip) {
  const int c = u.base_channels, h = clip;
  std::vector<ConvShape> all = {
      {u.in_channels, c, 3, 1, h},  // stem
      {c, c, 3, 1, h},              // rb0
      {c, 2 * c, 3, 2, h},          // down1
      {2 * c, 2 * c, 3, 1, h / 2},  // rb1
      {2 * c, 4 * c, 3, 2, h / 2},  // down2
      {4 * c, 4 * c, 3, 1, h / 4},  // rb2
  };
  if (u.attention) all.push_back({4 * c, 4 * c, 1, 1, h / 4});  // q/k/v/proj
  all.insert(all.end(), {
      {4 * c, 2 * c, 3, 1, h / 2},  // up1, rb_up1.conv1
      {4 * c, 2 * c, 1, 1, h / 2},  // rb_up1 skip
      {2 * c, c, 3, 1, h},          // up0, rb_up0.conv1
      {2 * c, c, 1, 1, h},          // rb_up0 skip
      {c, u.out_channels, 3, 1, h}, // head
  });
  std::vector<ConvShape> shapes;
  for (const ConvShape& s : all)
    if (std::find(shapes.begin(), shapes.end(), s) == shapes.end())
      shapes.push_back(s);
  return shapes;
}

}  // namespace

void conv_kernel_phase(const Options& o, Outcome& out) {
  const PatternPaintConfig cfg = model_config(o.quick);
  Rng rng(kEvalSeed);
  const nn::Precision precisions[] = {
      nn::Precision::kFp32, nn::Precision::kBf16, nn::Precision::kInt8};
  for (const ConvShape& sh : unet_conv_shapes(cfg.ddpm.unet, cfg.clip_size)) {
    const nn::Var w = nn::make_param(
        nn::Tensor::randn({sh.co, sh.ci, sh.k, sh.k}, rng, 0.1f));
    const nn::Tensor b = nn::Tensor::randn({sh.co}, rng, 0.1f);
    const nn::QuantizedModelWeights quantized({w});
    for (int n : {1, 8}) {
      const nn::Tensor x = nn::Tensor::randn({n, sh.ci, sh.h, sh.h}, rng);
      const double ho = sh.out_h();
      const double flops = 2.0 * n * sh.co * sh.ci * sh.k * sh.k * ho * ho;
      const std::string base =
          "nn.conv." + sh.name() + ".b" + std::to_string(n);
      for (nn::Precision p : precisions) {
        const nn::ScopedPrecision pin(p);
        nn::conv2d_forward(x, w->value, b, sh.stride, sh.k / 2);  // warm-up
        std::vector<double> call_s;
        const Clock::time_point t0 = Clock::now();
        while (call_s.size() < 3 ||
               seconds_since(t0) * 1e3 < o.sizes.kernel_min_ms) {
          const Clock::time_point c0 = Clock::now();
          nn::conv2d_forward(x, w->value, b, sh.stride, sh.k / 2);
          call_s.push_back(seconds_since(c0));
        }
        out.metric(out.layers, base + "." + nn::precision_name(p) + ".gflops",
                   flops / median(call_s) / 1e9, "GFLOP/s");
      }
      // fp32 operand and result bytes of one call, computed from the shapes.
      const double bytes =
          4.0 * (static_cast<double>(x.numel()) + w->value.numel() + sh.co +
                 n * sh.co * ho * ho);
      out.metric(out.layers, base + ".bytes", bytes, "bytes");
    }
  }
}

}  // namespace ppbench
