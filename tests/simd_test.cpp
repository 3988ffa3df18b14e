// SIMD kernel layer tests: runtime ISA dispatch, scalar-vs-vector parity
// for every compiled tier (tolerance-based — FMA and vectorized exp
// legitimately round differently from the scalar kernels), value-purity/
// bit-exactness guarantees within a fixed ISA (fused-vs-unfused epilogues,
// chunk invariance), the quantized int8/bf16 kernel tier (bitwise across
// ISAs — exact int32 accumulation / exact widening — and tolerance against
// fp32), and the 64-byte alignment contract of Tensor storage and kernel
// Scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/autograd.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "nn/quant.hpp"
#include "nn/simd.hpp"
#include "nn/simd_kernels.hpp"
#include "nn/tensor.hpp"
#include "obs/metrics.hpp"

namespace pp::nn {
namespace {

bool avx2_available() { return isa_usable(Isa::kAvx2); }

/// Pins the dispatched ISA for the duration of a scope.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) { force_isa(isa); }
  ~ScopedIsa() { clear_forced_isa(); }
};

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 1.0f);
}

void expect_close(const Tensor& a, const Tensor& b, float tol,
                  const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a[i], b[i], tol) << what << " at " << i;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)))
      << what;
}

// --- Dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, ParseIsaAcceptsKnownNames) {
  EXPECT_EQ(Isa::kScalar, parse_isa("scalar"));
  EXPECT_EQ(Isa::kAvx2, parse_isa("avx2"));
  EXPECT_EQ(Isa::kAvx512, parse_isa("avx512"));
}

TEST(SimdDispatch, ParseIsaRejectsUnknownNames) {
  EXPECT_THROW(parse_isa("avx1024"), Error);
  EXPECT_THROW(parse_isa(""), Error);
  EXPECT_THROW(parse_isa("AVX2"), Error);  // names are case-sensitive
}

TEST(SimdDispatch, ScalarAlwaysUsable) {
  EXPECT_TRUE(isa_compiled(Isa::kScalar));
  EXPECT_TRUE(isa_usable(Isa::kScalar));
}

TEST(SimdDispatch, ForceIsaPinsAndClears) {
  const Isa ambient = active_isa();
  {
    ScopedIsa pin(Isa::kScalar);
    EXPECT_EQ(Isa::kScalar, active_isa());
  }
  EXPECT_EQ(ambient, active_isa());
  if (avx2_available()) {
    ScopedIsa pin(Isa::kAvx2);
    EXPECT_EQ(Isa::kAvx2, active_isa());
  }
}

TEST(SimdDispatch, ForceIsaRejectsUnusable) {
  if (avx2_available()) GTEST_SKIP() << "AVX2 usable on this host";
  EXPECT_THROW(force_isa(Isa::kAvx2), Error);
}

TEST(SimdDispatch, IsaNames) {
  EXPECT_STREQ("scalar", isa_name(Isa::kScalar));
  EXPECT_STREQ("avx2", isa_name(Isa::kAvx2));
  EXPECT_STREQ("avx512", isa_name(Isa::kAvx512));
}

TEST(Precision, ScopedPinRestores) {
  EXPECT_EQ(Precision::kFp32, active_precision());
  {
    ScopedPrecision pin(Precision::kInt8);
    EXPECT_EQ(Precision::kInt8, active_precision());
    {
      ScopedPrecision inner(Precision::kBf16);
      EXPECT_EQ(Precision::kBf16, active_precision());
    }
    EXPECT_EQ(Precision::kInt8, active_precision());
  }
  EXPECT_EQ(Precision::kFp32, active_precision());
}

// --- Scalar vs vector parity (tolerance), per compiled vector tier ----------

// Runs fn under the scalar ISA and the parameterized vector ISA; skips
// when the host cannot execute the tier.
class SimdParityTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_usable(GetParam())) GTEST_SKIP() << "ISA not usable here";
  }
  template <typename Fn>
  std::pair<Tensor, Tensor> both_isas(Fn fn) {
    Tensor s, v;
    {
      ScopedIsa pin(Isa::kScalar);
      s = fn();
    }
    {
      ScopedIsa pin(GetParam());
      v = fn();
    }
    return {std::move(s), std::move(v)};
  }
};

TEST_P(SimdParityTest, GemmNN) {
  // Deliberately awkward sizes: M exercises the 1..3-row remainders, N the
  // 16/8/masked column tails, K the k-loop tail of the NT kernel.
  for (int M : {1, 3, 7, 33}) {
    for (int N : {1, 5, 8, 19, 64}) {
      const int K = 21;
      Tensor a = random_tensor({M, K}, 100 + static_cast<std::uint64_t>(M));
      Tensor b = random_tensor({K, N}, 200 + static_cast<std::uint64_t>(N));
      auto [s, v] = both_isas([&] {
        Tensor c({M, N});
        sgemm_nn(M, N, K, a.data(), K, b.data(), N, c.data(), N, false);
        return c;
      });
      expect_close(s, v, 1e-4f * static_cast<float>(K), "gemm_nn");
    }
  }
}

TEST_P(SimdParityTest, GemmNT) {
  for (int M : {2, 9}) {
    for (int N : {3, 17}) {
      for (int K : {6, 24, 37}) {
        Tensor a = random_tensor({M, K}, 300);
        Tensor b = random_tensor({N, K}, 400);
        auto [s, v] = both_isas([&] {
          Tensor c({M, N});
          sgemm_nt(M, N, K, a.data(), K, b.data(), K, c.data(), N, false);
          return c;
        });
        expect_close(s, v, 1e-4f * static_cast<float>(K), "gemm_nt");
      }
    }
  }
}

TEST_P(SimdParityTest, GemmTN) {
  for (int M : {4, 13}) {
    for (int N : {7, 30}) {
      const int K = 18;
      Tensor a = random_tensor({K, M}, 500);
      Tensor b = random_tensor({K, N}, 600);
      auto [s, v] = both_isas([&] {
        Tensor c({M, N});
        sgemm_tn(M, N, K, a.data(), M, b.data(), N, c.data(), N, false);
        return c;
      });
      expect_close(s, v, 1e-4f * static_cast<float>(K), "gemm_tn");
    }
  }
}

TEST_P(SimdParityTest, GemmAccumulate) {
  const int M = 6, N = 11, K = 9;
  Tensor a = random_tensor({M, K}, 700);
  Tensor b = random_tensor({K, N}, 800);
  Tensor init = random_tensor({M, N}, 900);
  auto [s, v] = both_isas([&] {
    Tensor c = init;
    sgemm_nn(M, N, K, a.data(), K, b.data(), N, c.data(), N, true);
    return c;
  });
  expect_close(s, v, 1e-4f * static_cast<float>(K), "gemm_nn accumulate");
}

TEST_P(SimdParityTest, Conv2dForwardAndBackward) {
  Tensor x = random_tensor({2, 3, 9, 9}, 1000);
  Tensor w = random_tensor({5, 3, 3, 3}, 1001);
  Tensor b = random_tensor({5}, 1002);
  auto [s, v] = both_isas(
      [&] { return conv2d_forward(x, w, b, 1, 1, ConvAlgo::kGemm); });
  expect_close(s, v, 1e-3f, "conv2d forward");

  Tensor gout = random_tensor(s.shape(), 1003);
  auto [gws, gwv] = both_isas([&] {
    Tensor gw = w.zeros_like();
    conv2d_grad_weight(x, gout, gw, 1, 1, ConvAlgo::kGemm);
    return gw;
  });
  expect_close(gws, gwv, 1e-2f, "conv2d grad_weight");

  auto [gxs, gxv] = both_isas([&] {
    Tensor gx = x.zeros_like();
    conv2d_grad_input(w, gout, gx, 1, 1, ConvAlgo::kGemm);
    return gx;
  });
  expect_close(gxs, gxv, 1e-2f, "conv2d grad_input");
}

TEST_P(SimdParityTest, EltwiseKernels) {
  // 67 elements: 8 full groups + a 3-lane masked tail.
  Tensor x = random_tensor({67}, 1100);
  Tensor y = random_tensor({67}, 1101);

  auto [ss, sv] = both_isas([&] { return silu_forward(x); });
  expect_close(ss, sv, 1e-5f, "silu");

  auto [as, av] = both_isas([&] {
    Tensor t = x;
    add_inplace(t, y);
    return t;
  });
  // Plain float adds round identically on both ISAs.
  expect_bitwise(as, av, "add");

  auto [cs, cv] = both_isas([&] {
    Tensor t = x;
    scale_inplace(t, 0.37f);
    return t;
  });
  expect_bitwise(cs, cv, "scale");
}

TEST_P(SimdParityTest, SiluExtremeInputsStayFinite) {
  Tensor x = Tensor::from_data(
      {6}, {-100.0f, -20.0f, -0.0f, 0.0f, 20.0f, 100.0f});
  auto [s, v] = both_isas([&] { return silu_forward(x); });
  for (std::size_t i = 0; i < v.numel(); ++i)
    ASSERT_TRUE(std::isfinite(v[i])) << i;
  expect_close(s, v, 1e-5f, "silu extremes");
}

TEST_P(SimdParityTest, GroupNorm) {
  Tensor x = random_tensor({2, 8, 5, 5}, 1200);
  Tensor g = random_tensor({8}, 1201);
  Tensor b = random_tensor({8}, 1202);
  std::vector<float> mean_s, istd_s, mean_v, istd_v;
  Tensor s, v;
  {
    ScopedIsa pin(Isa::kScalar);
    s = group_norm_forward(x, g, b, 4, 1e-5f, &mean_s, &istd_s);
  }
  {
    ScopedIsa pin(GetParam());
    v = group_norm_forward(x, g, b, 4, 1e-5f, &mean_v, &istd_v);
  }
  expect_close(s, v, 1e-5f, "group_norm");
  for (std::size_t i = 0; i < mean_s.size(); ++i) {
    ASSERT_NEAR(mean_s[i], mean_v[i], 1e-6f);
    ASSERT_NEAR(istd_s[i], istd_v[i], 1e-4f);
  }
}

TEST_P(SimdParityTest, LinearForward) {
  Tensor x = random_tensor({4, 13}, 1300);
  Tensor w = random_tensor({9, 13}, 1301);
  Tensor b = random_tensor({9}, 1302);
  auto [s, v] = both_isas([&] { return linear_forward(x, w, b); });
  expect_close(s, v, 1e-4f * 13.0f, "linear");
}

INSTANTIATE_TEST_SUITE_P(VectorIsas, SimdParityTest,
                         ::testing::Values(Isa::kAvx2, Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// --- Within-ISA bit-exactness guarantees ------------------------------------

class SimdBitExactTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_usable(GetParam())) GTEST_SKIP() << "ISA not usable here";
    force_isa(GetParam());
  }
  void TearDown() override { clear_forced_isa(); }
};

// A row of C must come out bitwise identical whether it is computed as part
// of a large row range (register-blocked 6 rows at a time on AVX2, 12 then
// 6 on AVX-512) or alone (the 1-row remainder kernel). This is the
// invariant that makes GEMM results independent of thread chunking. M
// covers 12+1, 12+6+1 and 12+12+1 rows.
TEST_P(SimdBitExactTest, GemmRowsIndependentOfRowBlocking) {
  const int N = 37, K = 29;
  for (int M : {13, 19, 25}) {
    Tensor a = random_tensor({M, K}, 2200 + static_cast<std::uint64_t>(M));
    Tensor b = random_tensor({K, N}, 2201);
    Tensor full_nn({M, N}), full_tn({M, N});
    sgemm_nn(M, N, K, a.data(), K, b.data(), N, full_nn.data(), N, false);
    // TN reads the same buffer as A^T{K, M}: row i of C is column i of it.
    sgemm_tn(M, N, K, a.data(), M, b.data(), N, full_tn.data(), N, false);
    for (int i = 0; i < M; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * N;
      Tensor row({1, N});
      sgemm_nn(1, N, K, a.data() + static_cast<std::size_t>(i) * K, K,
               b.data(), N, row.data(), N, false);
      ASSERT_EQ(0, std::memcmp(row.data(), full_nn.data() + off,
                               sizeof(float) * static_cast<std::size_t>(N)))
          << "nn M=" << M << " row " << i;
      sgemm_tn(1, N, K, a.data() + i, M, b.data(), N, row.data(), N, false);
      ASSERT_EQ(0, std::memcmp(row.data(), full_tn.data() + off,
                               sizeof(float) * static_cast<std::size_t>(N)))
          << "tn M=" << M << " row " << i;
    }
  }
}

// Stride-1 3x3 pad-1 convs skip im2col on AVX-512 (conv3x3_s1 reads the
// plane under per-tap lane masks); every other tier keeps im2col + GEMM.
// Either way the output must equal im2col + sgemm_nn + the row epilogue
// bit for bit. The planes put every row and column edge at every lane
// position and leave ragged tails; Co covers the 12- and 6-row tiles and
// every remainder; zero biases take the epilogue's skip.
TEST_P(SimdBitExactTest, Conv3x3MatchesIm2colGemmBitwise) {
  const bool implicit_kernel = detail::active_kernels().conv3x3_s1;
  EXPECT_EQ(GetParam() == Isa::kAvx512, implicit_kernel);
  const obs::Counter& implicit =
      obs::metrics().counter("nn.conv2d.dispatch.implicit");
  const std::uint64_t implicit_before = implicit.value();
  const int sides[] = {1, 2, 3, 5, 8, 9, 16, 17, 20, 32, 33};
  const int in_channels[] = {1, 3, 12};
  const int out_channels[] = {1, 5, 6, 11, 12, 13, 24, 25};
  std::uint64_t seed = 2400;
  int pick = 0;
  for (int H : sides) {
    for (int W : sides) {
      for (int Co : out_channels) {
        // Ci and N rotate so every value meets every plane.
        const int Ci = in_channels[pick % 3];
        const int N = pick % 2 == 0 ? 1 : 3;
        ++pick;
        Tensor x = random_tensor({N, Ci, H, W}, ++seed);
        Tensor w = random_tensor({Co, Ci, 3, 3}, ++seed);
        Tensor b = random_tensor({Co}, ++seed);
        for (int co = 0; co < Co; co += 3) b.data()[co] = 0.0f;
        Tensor got = conv2d_forward(x, w, b, 1, 1, ConvAlgo::kGemm);

        const int P = H * W, K = Ci * 9;
        Tensor ref({N, Co, H, W});
        std::vector<float> col(static_cast<std::size_t>(K) * P);
        GemmEpilogue epi;
        epi.bias = b.data();
        for (int n = 0; n < N; ++n) {
          im2col(x.data() + static_cast<std::size_t>(n) * Ci * P, Ci, H, W, 3,
                 3, 1, 1, H, W, col.data());
          sgemm_nn(Co, P, K, w.data(), K, col.data(), P,
                   ref.data() + static_cast<std::size_t>(n) * Co * P, P,
                   false, &epi);
        }
        expect_bitwise(got, ref, "conv3x3");
        if (HasFatalFailure()) {
          ADD_FAILURE() << "H=" << H << " W=" << W << " Ci=" << Ci
                        << " Co=" << Co << " N=" << N;
          return;
        }
      }
    }
  }
  // The AVX-512 leg must really have run the im2col-free kernel.
  EXPECT_EQ(implicit_kernel, implicit.value() > implicit_before);
}

/// Every fifth element of t set to a signed zero, alternating +0 and -0.
void sprinkle_signed_zeros(Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); i += 5)
    t.data()[i] = i % 10 == 0 ? 0.0f : -0.0f;
}

// Both gradients of a stride-1 3x3 pad-1 conv skip the col buffer on
// AVX-512 (conv3x3_s1_gw and conv3x3_s1_gx read the planes under per-tap
// lane masks); every other tier keeps im2col/col2im + GEMM. Either way gw
// must equal im2col + sgemm_nt (accumulate) and gx sgemm_tn + col2im_add
// bit for bit. gw and gx start from random values and signed zeros, so a
// lane written that col2im_add skips, or an add out of order, shows; gout
// carries -0.0f. Planes, Co and the tiles are as in the forward test;
// every (Co, Ci) pair meets both batch sizes.
TEST_P(SimdBitExactTest, Conv3x3GradsMatchIm2colGemmBitwise) {
  const detail::KernelTable& kt = detail::active_kernels();
  const bool implicit_kernels = kt.conv3x3_s1_gx && kt.conv3x3_s1_gw;
  EXPECT_EQ(GetParam() == Isa::kAvx512, implicit_kernels);
  const obs::Counter& implicit =
      obs::metrics().counter("nn.conv2d.dispatch.implicit_grad");
  const std::uint64_t implicit_before = implicit.value();
  const int sides[] = {1, 2, 3, 5, 8, 9, 16, 17, 20, 32, 33};
  const int in_channels[] = {1, 3, 12, 24};
  const int out_channels[] = {1, 5, 6, 7, 11, 12, 13, 24, 25, 48};
  std::uint64_t seed = 2600;
  int plane_idx = 0;
  for (int H : sides) {
    for (int W : sides) {
      for (int co_idx = 0; co_idx < 10; ++co_idx) {
        const int Co = out_channels[co_idx];
        const int Ci = in_channels[(plane_idx + co_idx) % 4];
        const int N = plane_idx / 4 % 2 == 0 ? 1 : 3;
        Tensor x = random_tensor({N, Ci, H, W}, ++seed);
        Tensor w = random_tensor({Co, Ci, 3, 3}, ++seed);
        Tensor gout = random_tensor({N, Co, H, W}, ++seed);
        for (std::size_t i = 3; i < gout.numel(); i += 7)
          gout.data()[i] = -0.0f;
        Tensor gw_start = random_tensor({Co, Ci, 3, 3}, ++seed);
        Tensor gx_start = random_tensor({N, Ci, H, W}, ++seed);
        sprinkle_signed_zeros(gw_start);
        sprinkle_signed_zeros(gx_start);

        Tensor gw = gw_start, gx = gx_start;
        conv2d_grad_weight(x, gout, gw, 1, 1, ConvAlgo::kGemm);
        conv2d_grad_input(w, gout, gx, 1, 1, ConvAlgo::kGemm);

        const int P = H * W, K = Ci * 9;
        Tensor gw_ref = gw_start, gx_ref = gx_start;
        std::vector<float> col(static_cast<std::size_t>(K) * P);
        for (int n = 0; n < N; ++n) {
          const float* gn = gout.data() + static_cast<std::size_t>(n) * Co * P;
          im2col(x.data() + static_cast<std::size_t>(n) * Ci * P, Ci, H, W, 3,
                 3, 1, 1, H, W, col.data());
          sgemm_nt(Co, K, P, gn, P, col.data(), P, gw_ref.data(), K, true);
          sgemm_tn(K, P, Co, w.data(), K, gn, P, col.data(), P, false);
          col2im_add(col.data(), Ci, H, W, 3, 3, 1, 1, H, W,
                     gx_ref.data() + static_cast<std::size_t>(n) * Ci * P);
        }
        expect_bitwise(gw, gw_ref, "conv3x3 grad_weight");
        if (!HasFatalFailure())
          expect_bitwise(gx, gx_ref, "conv3x3 grad_input");
        if (HasFatalFailure()) {
          ADD_FAILURE() << "H=" << H << " W=" << W << " Ci=" << Ci
                        << " Co=" << Co << " N=" << N;
          return;
        }
      }
      ++plane_idx;
    }
  }
  // The AVX-512 leg must really have run the im2col-free kernels.
  EXPECT_EQ(implicit_kernels, implicit.value() > implicit_before);
}

// Elementwise kernels are value-pure: splitting a buffer at an arbitrary
// offset (as eltwise_parallel does across threads) must not change any
// element, even though the split shifts vector-lane assignments.
TEST_P(SimdBitExactTest, EltwiseChunkInvariance) {
  const std::size_t n = 1003;
  Tensor x = random_tensor({static_cast<int>(n)}, 2300);
  Tensor whole = silu_forward(x);
  const detail::KernelTable& kt = detail::active_kernels();
  Tensor split = x.zeros_like();
  const std::size_t cut = 13;  // not a multiple of the vector width
  kt.silu(x.data(), split.data(), cut);
  kt.silu(x.data() + cut, split.data() + cut, n - cut);
  expect_bitwise(whole, split, "silu chunk invariance");
}

INSTANTIATE_TEST_SUITE_P(AllIsas, SimdBitExactTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// --- Quantized kernel tier ---------------------------------------------------

/// int8-range operands widened into int16 lanes, as the quantizer emits.
std::vector<std::int16_t> random_q16(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int16_t> q(n);
  for (auto& v : q) v = static_cast<std::int16_t>(rng.uniform_int(-127, 127));
  return q;
}

// Per-ISA coverage of the quantized kernel entries. Unlike the fp32
// kernels (tolerance parity), every quantized entry must agree with the
// scalar tier BITWISE: gemm_i8_nt accumulates in exact int32 arithmetic,
// quantize_s8 rounds to nearest-even on every lane, and widen_bf16 is an
// exact bit widening.
class QuantKernelTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_usable(GetParam())) GTEST_SKIP() << "ISA not usable here";
    force_isa(GetParam());
  }
  void TearDown() override { clear_forced_isa(); }
};

/// Panel-packs an {N, K} NT operand the way sgemm_i8_nt does before it
/// hands B to the kernel table.
std::vector<std::int16_t> packed_b(const std::vector<std::int16_t>& b, int N,
                                   int K) {
  std::vector<std::int16_t> bp(packed_i8_size(N, K));
  pack_i8_b(b.data(), N, K, I8Layout::kNT, K, bp.data());
  return bp;
}

TEST_P(QuantKernelTest, Int8GemmBitwiseMatchesScalarAtRaggedShapes) {
  const detail::KernelTable& kt = detail::active_kernels();
  const detail::KernelTable& sk = detail::scalar_kernels();
  const int M = 5;
  // N exercises the column-stripe widths and their masked remainders, K
  // the packed k-pair loop including odd final depths.
  for (int N : {1, 2, 3, 4, 5, 16, 17, 33}) {
    for (int K : {1, 15, 16, 31, 32, 33, 64}) {
      auto a = random_q16(static_cast<std::size_t>(M) * K,
                          3000 + static_cast<std::uint64_t>(N));
      auto b = random_q16(static_cast<std::size_t>(N) * K,
                          4000 + static_cast<std::uint64_t>(K));
      auto bp = packed_b(b, N, K);
      std::vector<float> cv(static_cast<std::size_t>(M) * N, -1.0f);
      std::vector<float> cs(cv);
      kt.gemm_i8_nt(0, M, N, K, a.data(), K, bp.data(), cv.data(), N,
                    nullptr, nullptr, 1.0f);
      sk.gemm_i8_nt(0, M, N, K, a.data(), K, bp.data(), cs.data(), N,
                    nullptr, nullptr, 1.0f);
      ASSERT_EQ(0,
                std::memcmp(cv.data(), cs.data(), cv.size() * sizeof(float)))
          << "N=" << N << " K=" << K;
    }
  }
}

// Both pack layouts must express the same matrix: packing B{N,K} (NT,
// weights) and its {K,N} transpose (KN, an im2col panel) yields identical
// packed bytes, so the conv path's no-transpose panel feed is exact.
TEST(PackI8BTest, LayoutsAgreeIncludingOddKTail) {
  for (int N : {1, 5, 16, 33}) {
    for (int K : {1, 7, 16, 27}) {
      auto bnt = random_q16(static_cast<std::size_t>(N) * K,
                            7000 + static_cast<std::uint64_t>(N) * 100 + K);
      std::vector<std::int16_t> bkn(bnt.size());
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < K; ++k)
          bkn[static_cast<std::size_t>(k) * N + j] =
              bnt[static_cast<std::size_t>(j) * K + k];
      const std::size_t pn = packed_i8_size(N, K);
      std::vector<std::int16_t> pnt(pn, 99), pkn(pn, 77);
      pack_i8_b(bnt.data(), N, K, I8Layout::kNT, K, pnt.data());
      pack_i8_b(bkn.data(), N, K, I8Layout::kKN, N, pkn.data());
      ASSERT_EQ(0, std::memcmp(pnt.data(), pkn.data(),
                               pn * sizeof(std::int16_t)))
          << "N=" << N << " K=" << K;
    }
  }
}

// The fused dequant store (int32 -> float, x row scale, x col scale, one
// IEEE multiply per term) must be bitwise identical between scalar and
// vector tiers, including masked column tails where the vector path loads
// the col-scale vector under the store mask.
TEST_P(QuantKernelTest, Int8GemmFusedDequantMatchesScalarBitwise) {
  const detail::KernelTable& kt = detail::active_kernels();
  const detail::KernelTable& sk = detail::scalar_kernels();
  const int M = 7;
  for (int N : {5, 16, 24, 33}) {
    for (int K : {9, 27, 32}) {
      auto a = random_q16(static_cast<std::size_t>(M) * K, 8100 + N);
      auto b = random_q16(static_cast<std::size_t>(N) * K, 8200 + K);
      auto bp = packed_b(b, N, K);
      std::vector<float> drow(M), dcol(N);
      for (int i = 0; i < M; ++i) drow[i] = 0.25f + 0.125f * i;
      for (int j = 0; j < N; ++j) dcol[j] = 2.0f - 0.03125f * j;
      std::vector<float> cv(static_cast<std::size_t>(M) * N, -1.0f);
      std::vector<float> cs(cv);
      kt.gemm_i8_nt(0, M, N, K, a.data(), K, bp.data(), cv.data(), N,
                    drow.data(), dcol.data(), 0.0078125f);
      sk.gemm_i8_nt(0, M, N, K, a.data(), K, bp.data(), cs.data(), N,
                    drow.data(), dcol.data(), 0.0078125f);
      ASSERT_EQ(0,
                std::memcmp(cv.data(), cs.data(), cv.size() * sizeof(float)))
          << "N=" << N << " K=" << K;
    }
  }
}

// A row of quantized C must come out identical whether computed inside a
// large [lo, hi) range or alone — the invariant that makes the int8 GEMM
// independent of thread chunking (bitwise by construction: int32 sums).
TEST_P(QuantKernelTest, Int8GemmRowChunkInvariance) {
  const detail::KernelTable& kt = detail::active_kernels();
  const int M = 13, N = 37, K = 29;
  auto a = random_q16(static_cast<std::size_t>(M) * K, 5000);
  auto b = random_q16(static_cast<std::size_t>(N) * K, 5001);
  auto bp = packed_b(b, N, K);
  std::vector<float> full(static_cast<std::size_t>(M) * N);
  std::vector<float> split(full.size());
  kt.gemm_i8_nt(0, M, N, K, a.data(), K, bp.data(), full.data(), N,
                nullptr, nullptr, 1.0f);
  kt.gemm_i8_nt(0, 5, N, K, a.data(), K, bp.data(), split.data(), N,
                nullptr, nullptr, 1.0f);
  kt.gemm_i8_nt(5, 6, N, K, a.data(), K, bp.data(), split.data(), N,
                nullptr, nullptr, 1.0f);
  kt.gemm_i8_nt(6, 13, N, K, a.data(), K, bp.data(), split.data(), N,
                nullptr, nullptr, 1.0f);
  ASSERT_EQ(0,
            std::memcmp(full.data(), split.data(),
                        full.size() * sizeof(float)));
}

TEST_P(QuantKernelTest, QuantizeS8BitwiseMatchesScalarAndClamps) {
  const detail::KernelTable& kt = detail::active_kernels();
  const detail::KernelTable& sk = detail::scalar_kernels();
  const std::size_t n = 1003;  // full vector groups + a ragged tail
  Tensor x = random_tensor({static_cast<int>(n)}, 6000);
  x.data()[0] = 400.0f;    // clamps to +127
  x.data()[1] = -400.0f;   // clamps to -127
  x.data()[2] = 0.5f;      // rounds to nearest EVEN at inv_scale 1
  x.data()[3] = 1.5f;      // ties round 2, not 1
  std::vector<std::int16_t> qv(n, 99), qs(n, 99);
  for (float inv : {1.0f, 127.0f / 3.7f}) {
    kt.quantize_s8(x.data(), inv, qv.data(), n);
    sk.quantize_s8(x.data(), inv, qs.data(), n);
    ASSERT_EQ(0,
              std::memcmp(qv.data(), qs.data(), n * sizeof(std::int16_t)))
        << "inv=" << inv;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(qv[i], 127) << i;
      ASSERT_GE(qv[i], -127) << i;
    }
  }
  ASSERT_EQ(127, qv[0]);
  ASSERT_EQ(-127, qv[1]);
}

TEST_P(QuantKernelTest, WidenBf16IsExactBitWidening) {
  const detail::KernelTable& kt = detail::active_kernels();
  const detail::KernelTable& sk = detail::scalar_kernels();
  const std::size_t n = 77;  // ragged vector tail
  Rng rng(6100);
  std::vector<std::uint16_t> x(n);
  for (auto& v : x)
    v = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  x[0] = 0;       // +0.0f
  x[1] = 0x8000;  // -0.0f
  x[2] = 0x3F80;  // 1.0f
  std::vector<float> ov(n), os(n);
  kt.widen_bf16(x.data(), ov.data(), n);
  sk.widen_bf16(x.data(), os.data(), n);
  ASSERT_EQ(0, std::memcmp(ov.data(), os.data(), n * sizeof(float)));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &ov[i], sizeof(bits));
    ASSERT_EQ(static_cast<std::uint32_t>(x[i]) << 16, bits) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, QuantKernelTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// --- Quantized weight registry -----------------------------------------------

TEST(QuantizedWeights, RegistrarStatsAndLifecycle) {
  Var w2 = make_param(random_tensor({8, 16}, 7100));      // linear weight
  Var w4 = make_param(random_tensor({4, 2, 3, 3}, 7101));  // conv weight
  Var bias = make_param(random_tensor({8}, 7102));         // 1-D: skipped
  const float* k2 = w2->value.data();
  const float* k4 = w4->value.data();
  {
    QuantizedModelWeights qmw({w2, w4, bias, nullptr});
    auto q = detail::find_quantized(k2);
    ASSERT_NE(nullptr, q);
    EXPECT_EQ(8, q->rows);
    EXPECT_EQ(16, q->cols);
    EXPECT_EQ(128u, q->q16.size());
    EXPECT_EQ(8u, q->scales.size());
    EXPECT_EQ(128u, q->bf16.size());
    for (std::int16_t v : q->q16) {
      EXPECT_LE(v, 127);
      EXPECT_GE(v, -127);
    }
    EXPECT_NE(nullptr, detail::find_quantized(k4));
    EXPECT_EQ(nullptr, detail::find_quantized(bias->value.data()));
  }
  // Registrar death unpublishes the tables.
  EXPECT_EQ(nullptr, detail::find_quantized(k2));
  EXPECT_EQ(nullptr, detail::find_quantized(k4));
}

TEST(QuantizedWeights, AllZeroRowQuantizesToZeros) {
  Tensor t({2, 5});
  for (int c = 0; c < 5; ++c)
    t.data()[5 + c] = static_cast<float>(c - 2);  // row 1 nonzero
  Var w = make_param(std::move(t));
  QuantizedModelWeights qmw({w});
  auto q = detail::find_quantized(w->value.data());
  ASSERT_NE(nullptr, q);
  EXPECT_EQ(0.0f, q->scales[0]);
  for (int c = 0; c < 5; ++c) EXPECT_EQ(0, q->q16[static_cast<std::size_t>(c)]);
  // Row 1: absmax 2 -> scale 2/127, extremes hit exactly ±127.
  EXPECT_EQ(-127, q->q16[5]);
  EXPECT_EQ(127, q->q16[9]);
}

// --- Reduced-precision forward dispatch --------------------------------------

class PrecisionForwardTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_usable(GetParam())) GTEST_SKIP() << "ISA not usable here";
    force_isa(GetParam());
  }
  void TearDown() override { clear_forced_isa(); }
};

// int8/bf16 conv must track fp32 within quantization error — and actually
// run the reduced tier (bitwise different from fp32), not silently fall
// back.
TEST_P(PrecisionForwardTest, Conv2dReducedTiersTrackFp32) {
  Tensor x = random_tensor({2, 4, 8, 8}, 7200);
  Var w = make_param(random_tensor({6, 4, 3, 3}, 7201));
  Tensor b = random_tensor({6}, 7202);
  QuantizedModelWeights qmw({w});
  Tensor ref = conv2d_forward(x, w->value, b, 1, 1, ConvAlgo::kGemm);
  Tensor q8, qb;
  {
    ScopedPrecision pin(Precision::kInt8);
    q8 = conv2d_forward(x, w->value, b, 1, 1, ConvAlgo::kGemm);
  }
  {
    ScopedPrecision pin(Precision::kBf16);
    qb = conv2d_forward(x, w->value, b, 1, 1, ConvAlgo::kGemm);
  }
  expect_close(ref, q8, 0.8f, "conv int8 vs fp32");
  expect_close(ref, qb, 0.15f, "conv bf16 vs fp32");
  EXPECT_NE(0, std::memcmp(ref.data(), q8.data(),
                           ref.numel() * sizeof(float)));
  EXPECT_NE(0, std::memcmp(ref.data(), qb.data(),
                           ref.numel() * sizeof(float)));
}

TEST_P(PrecisionForwardTest, LinearReducedTiersTrackFp32) {
  Tensor x = random_tensor({5, 17}, 7300);
  Var w = make_param(random_tensor({11, 17}, 7301));
  Tensor b = random_tensor({11}, 7302);
  QuantizedModelWeights qmw({w});
  Tensor ref = linear_forward(x, w->value, b);
  Tensor q8, qb;
  {
    ScopedPrecision pin(Precision::kInt8);
    q8 = linear_forward(x, w->value, b);
  }
  {
    ScopedPrecision pin(Precision::kBf16);
    qb = linear_forward(x, w->value, b);
  }
  expect_close(ref, q8, 0.5f, "linear int8 vs fp32");
  expect_close(ref, qb, 0.1f, "linear bf16 vs fp32");
  EXPECT_NE(0, std::memcmp(ref.data(), q8.data(),
                           ref.numel() * sizeof(float)));
}

// Reduced-precision results are a pure function of the inputs: repeated
// runs under the same (ISA, precision) are bitwise identical.
TEST_P(PrecisionForwardTest, ReducedTiersAreDeterministic) {
  Tensor x = random_tensor({2, 4, 8, 8}, 7400);
  Var w = make_param(random_tensor({6, 4, 3, 3}, 7401));
  Tensor b = random_tensor({6}, 7402);
  QuantizedModelWeights qmw({w});
  for (Precision p : {Precision::kInt8, Precision::kBf16}) {
    ScopedPrecision pin(p);
    Tensor a = conv2d_forward(x, w->value, b, 1, 1, ConvAlgo::kGemm);
    Tensor c = conv2d_forward(x, w->value, b, 1, 1, ConvAlgo::kGemm);
    expect_bitwise(a, c, precision_name(p));
  }
}

// Unregistered weights (no QuantizedModelWeights alive) fall back to the
// fp32 path bitwise — a reduced-precision pin must never change results
// for models that were not quantized.
TEST_P(PrecisionForwardTest, UnregisteredWeightFallsBackToFp32) {
  Tensor x = random_tensor({2, 3, 6, 6}, 7600);
  Tensor w = random_tensor({4, 3, 3, 3}, 7601);
  Tensor b = random_tensor({4}, 7602);
  Tensor ref = conv2d_forward(x, w, b, 1, 1, ConvAlgo::kGemm);
  ScopedPrecision pin(Precision::kInt8);
  Tensor fb = conv2d_forward(x, w, b, 1, 1, ConvAlgo::kGemm);
  expect_bitwise(ref, fb, "fp32 fallback");
}

INSTANTIATE_TEST_SUITE_P(AllIsas, PrecisionForwardTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// --- Alignment regression ----------------------------------------------------

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Alignment, TensorStorageIs64ByteAligned) {
  for (auto shape : std::vector<std::vector<int>>{
           {1}, {7}, {3, 5}, {2, 3, 9, 9}, {128, 1152}}) {
    Tensor t(shape);
    EXPECT_TRUE(aligned64(t.data())) << t.shape_str();
  }
  Tensor fd = Tensor::from_data({5}, {1, 2, 3, 4, 5});
  EXPECT_TRUE(aligned64(fd.data()));
}

TEST(Alignment, ScratchIs64ByteAlignedAndNullWhenEmpty) {
  // Odd sizes, several live at once: each must start on a 64-byte boundary.
  std::vector<Scratch<float>> live;
  for (std::size_t n : {1u, 3u, 17u, 100u, 4097u}) {
    live.emplace_back(n);
    EXPECT_TRUE(aligned64(live.back().get())) << "Scratch<float>(" << n << ")";
  }
  Scratch<std::int16_t> i16(33);
  EXPECT_TRUE(aligned64(i16.get()));
  EXPECT_EQ(Scratch<float>(0).get(), nullptr);
}

}  // namespace
}  // namespace pp::nn
