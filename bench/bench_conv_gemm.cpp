// conv2d kernel microbenchmark: direct nested-loop vs im2col+GEMM across
// the conv shapes the UNet actually runs (stem, down, bottleneck, 1x1
// skip), so the dispatch heuristic in kernels.cpp can be re-validated when
// either path changes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "benchutil.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "nn/simd.hpp"

namespace {

using namespace pp;
using nn::ConvAlgo;
using nn::Tensor;

struct Shape {
  const char* name;
  int ci, co, h, w, k, stride, pad;
};

// UNet layer shapes at the 32px experiment size (base_channels from the
// sd1 preset) plus a 64px stem to show scaling.
constexpr Shape kShapes[] = {
    {"stem_32px", 3, 32, 32, 32, 3, 1, 1},
    {"mid_32px", 64, 64, 16, 16, 3, 1, 1},
    {"bottleneck_32px", 128, 128, 8, 8, 3, 1, 1},
    {"down_32px", 32, 64, 32, 32, 3, 2, 1},
    {"skip1x1_32px", 64, 128, 8, 8, 1, 1, 0},
    {"stem_64px", 3, 32, 64, 64, 3, 1, 1},
};

void BM_Conv(benchmark::State& state, const Shape& s, ConvAlgo algo) {
  Rng rng(7);
  Tensor x = Tensor::randn({1, s.ci, s.h, s.w}, rng);
  Tensor w = Tensor::randn({s.co, s.ci, s.k, s.k}, rng, 0.1f);
  Tensor b = Tensor::randn({s.co}, rng);
  for (auto _ : state) {
    Tensor out = nn::conv2d_forward(x, w, b, s.stride, s.pad, algo);
    benchmark::DoNotOptimize(out.data());
  }
}

/// One JSON line per shape, algorithm and usable kernel ISA: quick wall
/// numbers plus GFLOP/s for the cross-PR perf trajectory. Each ISA is
/// measured under force_isa so one run reports the scalar/AVX2/AVX-512
/// ratios. `gemm_*` lines time the GEMM kernel alone at the conv's im2col
/// shape; `conv_*` lines run conv2d_forward end to end.
void emit_summaries() {
  Rng rng(7);
  std::vector<nn::Isa> isas = {nn::Isa::kScalar};
  if (nn::isa_usable(nn::Isa::kAvx2)) isas.push_back(nn::Isa::kAvx2);
  if (nn::isa_usable(nn::Isa::kAvx512)) isas.push_back(nn::Isa::kAvx512);
  for (const Shape& s : kShapes) {
    // Pure GEMM at this conv's im2col shape: M=Co, K=Ci*Kh*Kw, N=Ho*Wo.
    const int gm = s.co;
    const int gk = s.ci * s.k * s.k;
    const int gho = (s.h + 2 * s.pad - s.k) / s.stride + 1;
    const int gn = gho * ((s.w + 2 * s.pad - s.k) / s.stride + 1);
    Tensor ga = Tensor::randn({gm, gk}, rng, 0.1f);
    Tensor gb = Tensor::randn({gk, gn}, rng, 0.1f);
    Tensor gc = Tensor::zeros({gm, gn});
    const double gemm_flops = 2.0 * gm * gk * static_cast<double>(gn);
    for (nn::Isa isa : isas) {
      nn::force_isa(isa);
      const char* iname = nn::isa_name(isa);
      nn::sgemm_nn(gm, gn, gk, ga.data(), gk, gb.data(), gn, gc.data(), gn,
                   /*accumulate=*/false);  // warm-up
      const int reps = 50;
      Timer t;
      for (int i = 0; i < reps; ++i) {
        nn::sgemm_nn(gm, gn, gk, ga.data(), gk, gb.data(), gn, gc.data(), gn,
                     /*accumulate=*/false);
        benchmark::DoNotOptimize(gc.data());
      }
      const double ms = t.seconds() * 1e3 / reps;
      bench::emit_json_summary(std::string("gemm_") + s.name + "_" + iname,
                               ms, gemm_flops / (ms * 1e6), iname);
    }
    Tensor x = Tensor::randn({1, s.ci, s.h, s.w}, rng);
    Tensor w = Tensor::randn({s.co, s.ci, s.k, s.k}, rng, 0.1f);
    Tensor b = Tensor::randn({s.co}, rng);
    const int ho = (s.h + 2 * s.pad - s.k) / s.stride + 1;
    const int wo = (s.w + 2 * s.pad - s.k) / s.stride + 1;
    const double flops = 2.0 * s.co * s.ci * s.k * s.k *
                         static_cast<double>(ho) * wo;
    for (ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kGemm}) {
      for (nn::Isa isa : isas) {
        nn::force_isa(isa);
        nn::conv2d_forward(x, w, b, s.stride, s.pad, algo);  // warm-up
        const int reps = 20;
        Timer t;
        for (int i = 0; i < reps; ++i) {
          Tensor out = nn::conv2d_forward(x, w, b, s.stride, s.pad, algo);
          benchmark::DoNotOptimize(out.data());
        }
        const double ms = t.seconds() * 1e3 / reps;
        const double gflops = flops / (ms * 1e6);
        std::string name = std::string("conv_") + s.name +
                           (algo == ConvAlgo::kGemm ? "_gemm" : "_direct") +
                           "_" + nn::isa_name(isa);
        bench::emit_json_summary(name, ms, gflops, nn::isa_name(isa));
      }
    }
  }
  nn::clear_forced_isa();
}

}  // namespace

int main(int argc, char** argv) {
  for (const Shape& s : kShapes) {
    benchmark::RegisterBenchmark(
        (std::string("ConvGemm/") + s.name + "/direct").c_str(),
        [&s](benchmark::State& st) { BM_Conv(st, s, ConvAlgo::kDirect); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("ConvGemm/") + s.name + "/gemm").c_str(),
        [&s](benchmark::State& st) { BM_Conv(st, s, ConvAlgo::kGemm); })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  emit_summaries();
  bench::finalize_observability("conv_gemm");
  return 0;
}
