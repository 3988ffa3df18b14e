// Tests for the from-scratch NN library: finite-difference gradient checks
// on every differentiable op, optimizer convergence, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace pp::nn {
namespace {

/// Central-difference gradient check: builds the graph through `f` (which
/// must return a scalar Var), runs backward, and compares the analytic
/// gradient of every listed parameter against finite differences.
void check_gradients(const std::vector<Var>& params,
                     const std::function<Var()>& f, float eps = 1e-3f,
                     float tol = 2e-2f) {
  Var loss = f();
  ASSERT_EQ(loss->value.numel(), 1u);
  zero_grad(params);
  backward(loss);
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Var p = params[pi];
    ASSERT_TRUE(p->has_grad()) << "param " << pi << " got no gradient";
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      float orig = p->value[i];
      p->value[i] = orig + eps;
      float lp = f()->value[0];
      p->value[i] = orig - eps;
      float lm = f()->value[0];
      p->value[i] = orig;
      float num = (lp - lm) / (2 * eps);
      float ana = p->grad[i];
      float denom = std::max({1.0f, std::fabs(num), std::fabs(ana)});
      EXPECT_NEAR(ana / denom, num / denom, tol)
          << "param " << pi << " index " << i << " analytic=" << ana
          << " numeric=" << num;
    }
  }
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  Var x = make_param(Tensor({2, 2}));
  EXPECT_THROW(backward(x), Error);
}

TEST(Autograd, LeafWithoutGradPathIsSkipped) {
  Rng rng(1);
  Var x = make_input(Tensor::randn({4}, rng));
  Var loss = mean(mul_scalar(x, 2.0f));
  backward(loss);  // nothing trainable: must not crash
  EXPECT_FALSE(x->has_grad());
}

TEST(Autograd, GradientAccumulatesAcrossUses) {
  // loss = mean(x + x) => dloss/dx = 2/numel each.
  Var x = make_param(Tensor::full({4}, 1.0f));
  Var loss = mean(add(x, x));
  backward(loss);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x->grad[static_cast<std::size_t>(i)], 0.5f);
}

TEST(Autograd, DiamondGraphGradient) {
  // y = mean(x*x + x): diamond through two paths.
  Rng rng(2);
  Var x = make_param(Tensor::randn({6}, rng));
  check_gradients({x}, [&] { return mean(add(mul(x, x), x)); });
}

TEST(Autograd, ZeroGradResets) {
  Var x = make_param(Tensor::full({3}, 2.0f));
  backward(mean(mul(x, x)));
  EXPECT_NE(x->grad.max_abs(), 0.0f);
  zero_grad({x});
  EXPECT_EQ(x->grad.max_abs(), 0.0f);
}

TEST(Autograd, ParameterCount) {
  Var a = make_param(Tensor({3, 4}));
  Var b = make_param(Tensor({5}));
  EXPECT_EQ(parameter_count({a, b}), 17u);
}

TEST(GradCheck, ElementwiseOps) {
  Rng rng(3);
  Var a = make_param(Tensor::randn({5}, rng));
  Var b = make_param(Tensor::randn({5}, rng));
  check_gradients({a, b}, [&] { return mean(add(a, b)); });
  check_gradients({a, b}, [&] { return mean(mul(a, b)); });
  check_gradients({a}, [&] { return mean(mul_scalar(a, -1.7f)); });
}

TEST(GradCheck, Activations) {
  Rng rng(4);
  Var x = make_param(Tensor::randn({8}, rng));
  check_gradients({x}, [&] { return mean(silu(x)); });
  // ReLU: keep values away from the kink.
  Var y = make_param(Tensor::from_data({4}, {1.0f, -1.0f, 2.0f, -0.5f}));
  check_gradients({y}, [&] { return mean(relu(y)); });
}

TEST(GradCheck, Linear) {
  Rng rng(5);
  Var x = make_param(Tensor::randn({3, 4}, rng));
  Var w = make_param(Tensor::randn({2, 4}, rng, 0.5f));
  Var b = make_param(Tensor::randn({2}, rng));
  check_gradients({x, w, b}, [&] { return mean(mul(linear(x, w, b), linear(x, w, b))); });
}

TEST(GradCheck, Conv2dStride1) {
  Rng rng(6);
  Var x = make_param(Tensor::randn({2, 2, 5, 5}, rng));
  Var w = make_param(Tensor::randn({3, 2, 3, 3}, rng, 0.4f));
  Var b = make_param(Tensor::randn({3}, rng));
  check_gradients({x, w, b},
                  [&] { return mse_loss(conv2d(x, w, b, 1, 1),
                                        make_input(Tensor({2, 3, 5, 5}))); });
}

TEST(GradCheck, Conv2dStride2) {
  Rng rng(7);
  Var x = make_param(Tensor::randn({1, 2, 6, 6}, rng));
  Var w = make_param(Tensor::randn({2, 2, 3, 3}, rng, 0.4f));
  Var b = make_param(Tensor::randn({2}, rng));
  check_gradients({x, w, b},
                  [&] { return mse_loss(conv2d(x, w, b, 2, 1),
                                        make_input(Tensor({1, 2, 3, 3}))); });
}

TEST(GradCheck, Conv2d1x1) {
  Rng rng(8);
  Var x = make_param(Tensor::randn({2, 3, 4, 4}, rng));
  Var w = make_param(Tensor::randn({2, 3, 1, 1}, rng, 0.6f));
  Var b = make_param(Tensor::randn({2}, rng));
  check_gradients({x, w, b},
                  [&] { return mse_loss(conv2d(x, w, b, 1, 0),
                                        make_input(Tensor({2, 2, 4, 4}))); });
}

TEST(Conv2d, ShapeAndKnownValue) {
  // Identity-ish check: 1x1 kernel with weight 2, bias 1 doubles and shifts.
  Var x = make_input(Tensor::full({1, 1, 2, 2}, 3.0f));
  Var w = make_param(Tensor::full({1, 1, 1, 1}, 2.0f));
  Var b = make_param(Tensor::full({1}, 1.0f));
  Var y = conv2d(x, w, b, 1, 0);
  ASSERT_EQ(y->value.shape(), (std::vector<int>{1, 1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y->value[i], 7.0f);
}

TEST(Conv2d, PaddingContributesZeros) {
  // Sum filter over a single center pixel: corner outputs see padding.
  Var x = make_input(Tensor::from_data({1, 1, 3, 3},
                                       {0, 0, 0, 0, 1, 0, 0, 0, 0}));
  Var w = make_param(Tensor::full({1, 1, 3, 3}, 1.0f));
  Var b = make_param(Tensor({1}));
  Var y = conv2d(x, w, b, 1, 1);
  // Every 3x3 window containing the center gets 1.
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y->value[i], 1.0f);
}

TEST(Conv2d, RejectsMismatchedShapes) {
  Var x = make_input(Tensor({1, 2, 4, 4}));
  Var w = make_param(Tensor({3, 3, 3, 3}));  // expects Ci=3, x has 2
  Var b = make_param(Tensor({3}));
  EXPECT_THROW(conv2d(x, w, b), Error);
}

TEST(Conv2d, RejectsKernelLargerThanPaddedInput) {
  // (H + 2*pad - K) / stride truncates toward zero: at stride > 1 a kernel
  // that does not fit would yield a 1x1 output unless checked first.
  for (int stride : {1, 2, 3}) {
    Tensor x = Tensor::full({1, 1, 2, 2}, 1.0f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.0f);
    EXPECT_THROW(conv2d_forward(x, w, Tensor({1}), stride, 0), Error)
        << "stride " << stride;
    // Only one axis too small: 3 wide, 2 high.
    Tensor xw = Tensor::full({1, 1, 2, 3}, 1.0f);
    EXPECT_THROW(conv2d_forward(xw, w, Tensor({1}), stride, 0), Error)
        << "stride " << stride;
  }
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0f);
  Tensor w = Tensor::full({1, 1, 5, 5}, 1.0f);
  EXPECT_THROW(conv2d_forward(x, w, Tensor({1}), 3, 0), Error);
  // Padding that makes the kernel fit is accepted: 3 + 2*1 >= 5.
  EXPECT_EQ(conv2d_forward(x, w, Tensor({1}), 3, 1).shape(),
            (std::vector<int>{1, 1, 1, 1}));
}

TEST(GradCheck, GroupNorm) {
  Rng rng(9);
  Var x = make_param(Tensor::randn({2, 4, 3, 3}, rng));
  Var gamma = make_param(Tensor::full({4}, 1.2f));
  Var beta = make_param(Tensor::full({4}, -0.1f));
  check_gradients({x, gamma, beta},
                  [&] {
                    Var y = group_norm(x, gamma, beta, 2);
                    return mse_loss(y, make_input(Tensor({2, 4, 3, 3})));
                  },
                  1e-2f, 3e-2f);
}

TEST(GroupNorm, NormalizesPerGroup) {
  Rng rng(10);
  Var x = make_input(Tensor::randn({1, 4, 8, 8}, rng, 5.0f));
  Var gamma = make_param(Tensor::full({4}, 1.0f));
  Var beta = make_param(Tensor::full({4}, 0.0f));
  Var y = group_norm(x, gamma, beta, 2);
  // Each (sample, group) slab must be ~zero-mean unit-variance.
  for (int g = 0; g < 2; ++g) {
    double s = 0, s2 = 0;
    int cnt = 0;
    for (int c = g * 2; c < g * 2 + 2; ++c)
      for (int h = 0; h < 8; ++h)
        for (int w = 0; w < 8; ++w) {
          float v = y->value.at4(0, c, h, w);
          s += v;
          s2 += v * v;
          ++cnt;
        }
    EXPECT_NEAR(s / cnt, 0.0, 1e-4);
    EXPECT_NEAR(s2 / cnt, 1.0, 1e-2);
  }
}

TEST(GroupNorm, RejectsIndivisibleGroups) {
  Var x = make_input(Tensor({1, 5, 2, 2}));
  Var g = make_param(Tensor({5}));
  Var b = make_param(Tensor({5}));
  EXPECT_THROW(group_norm(x, g, b, 2), Error);
}

TEST(GradCheck, UpsampleAndPool) {
  Rng rng(11);
  Var x = make_param(Tensor::randn({1, 2, 4, 4}, rng));
  check_gradients({x}, [&] {
    return mse_loss(upsample_nearest2(x), make_input(Tensor({1, 2, 8, 8})));
  });
}

TEST(Resample, UpsampleThenPoolIsIdentity) {
  // Each output pixel is a copy of its source pixel, so every 2x2 block
  // holds one input value four times and pooling it back is the identity.
  Rng rng(12);
  Var x = make_input(Tensor::randn({2, 3, 4, 4}, rng));
  Var y = upsample_nearest2(x);
  ASSERT_EQ(y->value.shape(), (std::vector<int>{2, 3, 8, 8}));
  for (int n = 0; n < 2; ++n)
    for (int c = 0; c < 3; ++c)
      for (int h = 0; h < 8; ++h)
        for (int w = 0; w < 8; ++w)
          EXPECT_EQ(y->value.at4(n, c, h, w),
                    x->value.at4(n, c, h / 2, w / 2));
}

TEST(GradCheck, ConcatChannels) {
  Rng rng(13);
  Var a = make_param(Tensor::randn({1, 2, 3, 3}, rng));
  Var b = make_param(Tensor::randn({1, 3, 3, 3}, rng));
  check_gradients({a, b}, [&] {
    Var c = concat_channels(a, b);
    return mse_loss(c, make_input(Tensor({1, 5, 3, 3})));
  });
}

TEST(Concat, LayoutIsChannelMajor) {
  Var a = make_input(Tensor::full({1, 1, 2, 2}, 1.0f));
  Var b = make_input(Tensor::full({1, 1, 2, 2}, 2.0f));
  Var c = concat_channels(a, b);
  EXPECT_FLOAT_EQ(c->value.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c->value.at4(0, 1, 0, 0), 2.0f);
}

TEST(GradCheck, ChannelBias) {
  Rng rng(14);
  Var x = make_param(Tensor::randn({2, 3, 2, 2}, rng));
  Var bias_c = make_param(Tensor::randn({3}, rng));
  check_gradients({x, bias_c}, [&] {
    return mse_loss(add_channel_bias(x, bias_c),
                    make_input(Tensor({2, 3, 2, 2})));
  });
  Var bias_nc = make_param(Tensor::randn({2, 3}, rng));
  check_gradients({x, bias_nc}, [&] {
    return mse_loss(add_channel_bias(x, bias_nc),
                    make_input(Tensor({2, 3, 2, 2})));
  });
}

TEST(GradCheck, Losses) {
  Rng rng(15);
  Var p = make_param(Tensor::randn({2, 1, 3, 3}, rng));
  Var t = make_input(Tensor::randn({2, 1, 3, 3}, rng));
  check_gradients({p}, [&] { return mse_loss(p, t); });
  // Targets in (0,1) for BCE.
  Tensor tt({2, 1, 3, 3});
  for (std::size_t i = 0; i < tt.numel(); ++i)
    tt[i] = static_cast<float>(rng.bernoulli(0.5));
  Var tb = make_input(tt);
  check_gradients({p}, [&] { return bce_with_logits(p, tb); });
}

TEST(Bmm, KnownProduct) {
  // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
  Var a = make_input(Tensor::from_data({1, 2, 2}, {1, 2, 3, 4}));
  Var b = make_input(Tensor::from_data({1, 2, 2}, {5, 6, 7, 8}));
  Var c = bmm(a, b);
  EXPECT_FLOAT_EQ(c->value[0], 19);
  EXPECT_FLOAT_EQ(c->value[1], 22);
  EXPECT_FLOAT_EQ(c->value[2], 43);
  EXPECT_FLOAT_EQ(c->value[3], 50);
}

TEST(Bmm, BatchesAreIndependent) {
  Rng rng(21);
  Var a = make_input(Tensor::randn({2, 3, 4}, rng));
  Var b = make_input(Tensor::randn({2, 4, 5}, rng));
  Var c = bmm(a, b);
  ASSERT_EQ(c->value.shape(), (std::vector<int>{2, 3, 5}));
  // Manual check for batch 1, element (2, 3).
  double s = 0;
  for (int k = 0; k < 4; ++k)
    s += static_cast<double>(a->value[static_cast<std::size_t>(1 * 12 + 2 * 4 + k)]) *
         b->value[static_cast<std::size_t>(1 * 20 + k * 5 + 3)];
  EXPECT_NEAR(c->value[static_cast<std::size_t>(1 * 15 + 2 * 5 + 3)], s, 1e-5);
}

TEST(Bmm, RejectsMismatch) {
  Var a = make_input(Tensor({1, 2, 3}));
  Var b = make_input(Tensor({1, 4, 5}));
  EXPECT_THROW(bmm(a, b), Error);
  EXPECT_THROW(bmm(a, make_input(Tensor({2, 3, 5}))), Error);
}

TEST(GradCheck, BmmBothOperands) {
  Rng rng(22);
  Var a = make_param(Tensor::randn({2, 3, 4}, rng, 0.5f));
  Var b = make_param(Tensor::randn({2, 4, 3}, rng, 0.5f));
  check_gradients({a, b}, [&] {
    return mse_loss(reshape(bmm(a, b), {2, 9}),
                    make_input(Tensor({2, 9})));
  });
}

TEST(TransposeLast2, InvolutionAndGrad) {
  Rng rng(23);
  Var x = make_param(Tensor::randn({2, 3, 4}, rng));
  Var y = transpose_last2(transpose_last2(x));
  for (std::size_t i = 0; i < x->value.numel(); ++i)
    EXPECT_EQ(y->value[i], x->value[i]);
  check_gradients({x}, [&] {
    return mse_loss(reshape(transpose_last2(x), {2, 12}),
                    make_input(Tensor({2, 12})));
  });
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Var x = make_input(Tensor::from_data({2, 3}, {1, 2, 3, -1, 0, 5}));
  Var y = softmax_lastdim(x);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += y->value.at2(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  EXPECT_LT(y->value.at2(0, 0), y->value.at2(0, 2));
}

TEST(Softmax, NumericallyStableOnLargeLogits) {
  Var x = make_input(Tensor::from_data({1, 2}, {1000.0f, 1001.0f}));
  Var y = softmax_lastdim(x);
  EXPECT_TRUE(std::isfinite(y->value[0]));
  EXPECT_NEAR(y->value[0] + y->value[1], 1.0f, 1e-6);
}

TEST(GradCheck, Softmax) {
  Rng rng(24);
  Var x = make_param(Tensor::randn({3, 5}, rng));
  Var t = make_input(Tensor::randn({3, 5}, rng));
  check_gradients({x}, [&] { return mse_loss(softmax_lastdim(x), t); });
}

TEST(Optimizer, AdamConvergesOnLinearRegression) {
  // Fit y = 3x - 2 from noisy samples.
  Rng rng(17);
  int n = 64;
  Tensor xs({n, 1}), ys({n, 1});
  for (int i = 0; i < n; ++i) {
    float x = static_cast<float>(rng.uniform(-1.0, 1.0));
    xs.at2(i, 0) = x;
    ys.at2(i, 0) = 3.0f * x - 2.0f + static_cast<float>(rng.normal(0, 0.01));
  }
  Var w = make_param(Tensor({1, 1}));
  Var b = make_param(Tensor({1}));
  Adam opt({w, b}, 0.05f);
  Var X = make_input(xs), Y = make_input(ys);
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    backward(mse_loss(linear(X, w, b), Y));
    opt.step();
  }
  EXPECT_NEAR(w->value[0], 3.0f, 0.05f);
  EXPECT_NEAR(b->value[0], -2.0f, 0.05f);
  EXPECT_EQ(opt.steps_taken(), 400);
}

TEST(Optimizer, RejectsNonTrainableParams) {
  Var x = make_input(Tensor({2}));
  EXPECT_THROW(Adam({x}, 0.01f), Error);
}

TEST(Serialize, RoundTrip) {
  Rng rng(18);
  auto dir = std::filesystem::temp_directory_path() / "pp_nn_ckpt_test";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "w.bin").string();
  Var a = make_param(Tensor::randn({3, 4}, rng));
  Var b = make_param(Tensor::randn({7}, rng));
  Tensor a0 = a->value, b0 = b->value;
  save_parameters({a, b}, path);
  a->value.fill(0);
  b->value.fill(0);
  EXPECT_TRUE(checkpoint_compatible({a, b}, path));
  load_parameters({a, b}, path);
  for (std::size_t i = 0; i < a0.numel(); ++i) EXPECT_EQ(a->value[i], a0[i]);
  for (std::size_t i = 0; i < b0.numel(); ++i) EXPECT_EQ(b->value[i], b0[i]);
  std::filesystem::remove_all(dir);
}

TEST(Serialize, DetectsIncompatibleShapes) {
  Rng rng(19);
  auto dir = std::filesystem::temp_directory_path() / "pp_nn_ckpt_test2";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "w.bin").string();
  Var a = make_param(Tensor::randn({3, 4}, rng));
  save_parameters({a}, path);
  Var wrong = make_param(Tensor({4, 3}));
  EXPECT_FALSE(checkpoint_compatible({wrong}, path));
  EXPECT_THROW(load_parameters({wrong}, path), Error);
  EXPECT_FALSE(checkpoint_compatible({a}, (dir / "missing.bin").string()));
  std::filesystem::remove_all(dir);
}

TEST(Serialize, ProbeRejectsTruncatedAndPaddedFiles) {
  Rng rng(20);
  auto dir = std::filesystem::temp_directory_path() / "pp_nn_ckpt_test3";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "w.bin").string();
  Var a = make_param(Tensor::randn({3, 4}, rng));
  save_parameters({a}, path);
  ASSERT_TRUE(checkpoint_compatible({a}, path));

  // Truncated payload: the probe must fail via size accounting (seekg past
  // EOF does not set failbit), and load must throw without modifying `a`.
  std::uintmax_t full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 2);
  EXPECT_FALSE(checkpoint_compatible({a}, path));
  Tensor before = a->value;
  EXPECT_THROW(load_parameters({a}, path), Error);
  for (std::size_t i = 0; i < before.numel(); ++i)
    EXPECT_EQ(a->value[i], before[i]);

  // Trailing garbage (padded file) is not a checkpoint we wrote either.
  save_parameters({a}, path);
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app.write("junk", 4);
  }
  EXPECT_FALSE(checkpoint_compatible({a}, path));
  std::filesystem::remove_all(dir);
}

TEST(Serialize, SaveIsAtomicViaTmpRename) {
  Rng rng(21);
  auto dir = std::filesystem::temp_directory_path() / "pp_nn_ckpt_test4";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "w.bin").string();
  Var a = make_param(Tensor::randn({5}, rng));
  save_parameters({a}, path);
  // No temp residue, and the final file is complete.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(checkpoint_compatible({a}, path));
  // Re-saving over an existing checkpoint replaces it cleanly.
  a->value.fill(3.5f);
  save_parameters({a}, path);
  Var b = make_param(Tensor({5}));
  load_parameters({b}, path);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(b->value[i], 3.5f);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Shapes, OpsRejectMalformedInputs) {
  // conv2d: kernel larger than padded input collapses the output.
  Var x = make_input(Tensor({1, 1, 2, 2}));
  Var w = make_param(Tensor({1, 1, 5, 5}));
  Var b = make_param(Tensor({1}));
  EXPECT_THROW(conv2d(x, w, b, 1, 0), Error);
  // reshape must preserve volume.
  EXPECT_THROW(reshape(make_input(Tensor({2, 3})), {7}), Error);
  // concat_channels needs matching N/H/W.
  EXPECT_THROW(concat_channels(make_input(Tensor({1, 1, 2, 2})),
                               make_input(Tensor({1, 1, 3, 3}))),
               Error);
  // elementwise shape mismatch.
  EXPECT_THROW(add(make_input(Tensor({2})), make_input(Tensor({3}))), Error);
  // add_channel_bias bias mismatch.
  EXPECT_THROW(add_channel_bias(make_input(Tensor({1, 3, 2, 2})),
                                make_param(Tensor({4}))),
               Error);
  // linear dimension mismatch.
  EXPECT_THROW(linear(make_input(Tensor({2, 3})), make_param(Tensor({4, 5})),
                      make_param(Tensor({4}))),
               Error);
  // transpose_last2 needs rank 3.
  EXPECT_THROW(transpose_last2(make_input(Tensor({2, 2}))), Error);
}

TEST(Autograd, GraphReusableForMultipleForwards) {
  // Building fresh graphs from the same parameters works repeatedly and
  // gradients accumulate only within one backward call.
  Var w = make_param(Tensor::full({1}, 2.0f));
  for (int i = 0; i < 3; ++i) {
    zero_grad({w});
    backward(mean(mul(w, w)));
    EXPECT_FLOAT_EQ(w->grad[0], 4.0f);  // d(w^2)/dw = 2w = 4 every time
  }
}

TEST(Tensor, BasicInvariants) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_THROW(Tensor({0, 3}), Error);
  EXPECT_THROW(Tensor({-1}), Error);
  EXPECT_THROW(Tensor({2, 2}).reshaped({3}), Error);
  Tensor r = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(r.at2(1, 0), 3.0f);
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2}), Error);
  EXPECT_FLOAT_EQ(r.max_abs(), 4.0f);
  EXPECT_FLOAT_EQ(r.squared_norm(), 30.0f);
  EXPECT_EQ(r.shape_str(), "[2,2]");
}

// --- GEMM micro-kernels ------------------------------------------------------

/// Naive double-precision C{M,N} (+)= op_a(A) * op_b(B) reference.
void naive_gemm(int M, int N, int K, const std::vector<float>& A,
                const std::vector<float>& B, std::vector<float>& C,
                bool a_trans, bool b_trans, bool acc) {
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j) {
      double s = acc ? C[static_cast<std::size_t>(i) * N + j] : 0.0;
      for (int k = 0; k < K; ++k) {
        float a = a_trans ? A[static_cast<std::size_t>(k) * M + i]
                          : A[static_cast<std::size_t>(i) * K + k];
        float b = b_trans ? B[static_cast<std::size_t>(j) * K + k]
                          : B[static_cast<std::size_t>(k) * N + j];
        s += static_cast<double>(a) * b;
      }
      C[static_cast<std::size_t>(i) * N + j] = static_cast<float>(s);
    }
}

TEST(Gemm, MatchesNaiveReference) {
  Rng rng(71);
  // Sizes straddle the 4-wide unroll and NC/KC block boundaries.
  for (auto [M, N, K] : {std::array<int, 3>{3, 5, 7},
                         std::array<int, 3>{17, 23, 9},
                         std::array<int, 3>{8, 130, 140}}) {
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    std::vector<float> At(A.size()), Bt(B.size());
    for (auto& v : A) v = static_cast<float>(rng.normal());
    for (auto& v : B) v = static_cast<float>(rng.normal());
    for (int i = 0; i < M; ++i)
      for (int k = 0; k < K; ++k)
        At[static_cast<std::size_t>(k) * M + i] = A[static_cast<std::size_t>(i) * K + k];
    for (int k = 0; k < K; ++k)
      for (int j = 0; j < N; ++j)
        Bt[static_cast<std::size_t>(j) * K + k] = B[static_cast<std::size_t>(k) * N + j];

    for (bool acc : {false, true}) {
      std::vector<float> C(static_cast<std::size_t>(M) * N, 0.5f);
      std::vector<float> ref = C;
      sgemm_nn(M, N, K, A.data(), K, B.data(), N, C.data(), N, acc);
      naive_gemm(M, N, K, A, B, ref, false, false, acc);
      for (std::size_t i = 0; i < C.size(); ++i)
        EXPECT_NEAR(C[i], ref[i], 1e-4f * K) << "nn " << M << "x" << N;

      C.assign(C.size(), 0.5f);
      ref = C;
      sgemm_nt(M, N, K, A.data(), K, Bt.data(), K, C.data(), N, acc);
      naive_gemm(M, N, K, A, Bt, ref, false, true, acc);
      for (std::size_t i = 0; i < C.size(); ++i)
        EXPECT_NEAR(C[i], ref[i], 1e-4f * K) << "nt " << M << "x" << N;

      C.assign(C.size(), 0.5f);
      ref = C;
      sgemm_tn(M, N, K, At.data(), M, B.data(), N, C.data(), N, acc);
      naive_gemm(M, N, K, At, B, ref, true, false, acc);
      for (std::size_t i = 0; i < C.size(); ++i)
        EXPECT_NEAR(C[i], ref[i], 1e-4f * K) << "tn " << M << "x" << N;
    }
  }
}

/// Every conv shape of the im2col / col2im_add sweeps: one sample with
/// square kernels, kept when the kernel fits the padded input.
template <typename Fn>
void for_each_im2col_shape(Fn&& fn) {
  for (int ci : {1, 3})
    for (int h : {1, 2, 3, 5, 8, 9})
      for (int w : {1, 2, 4, 7, 16})
        for (int k : {1, 2, 3, 5})
          for (int stride : {1, 2, 3})
            for (int pad : {0, 1, 2, 3}) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              fn(ci, h, w, k, stride, pad, (h + 2 * pad - k) / stride + 1,
                 (w + 2 * pad - k) / stride + 1);
            }
}

TEST(Gemm, Im2colMatchesDefinitionBitwise) {
  Rng rng(97);
  int cases = 0;
  for_each_im2col_shape([&](int ci, int h, int w, int k, int stride, int pad,
                            int ho, int wo) {
    ++cases;
    Tensor x = Tensor::randn({ci, h, w}, rng);
    const std::size_t n = static_cast<std::size_t>(ci) * k * k * ho * wo;
    // NaN fill: an element im2col fails to write cannot compare equal.
    std::vector<float> col(n, std::nanf("")), ref(n, 0.0f);
    for (int c = 0; c < ci; ++c)
      for (int ky = 0; ky < k; ++ky)
        for (int kx = 0; kx < k; ++kx)
          for (int oh = 0; oh < ho; ++oh)
            for (int ow = 0; ow < wo; ++ow) {
              const int ih = oh * stride + ky - pad, iw = ow * stride + kx - pad;
              if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
              ref[((static_cast<std::size_t>(c) * k + ky) * k + kx) * ho * wo +
                  static_cast<std::size_t>(oh) * wo + ow] =
                  x[(static_cast<std::size_t>(c) * h + ih) * w + iw];
            }
    im2col(x.data(), ci, h, w, k, k, stride, pad, ho, wo, col.data());
    EXPECT_EQ(std::memcmp(col.data(), ref.data(), n * sizeof(float)), 0)
        << "ci=" << ci << " h=" << h << " w=" << w << " k=" << k
        << " s=" << stride << " p=" << pad;
  });
  EXPECT_EQ(cases, 2460);
}

TEST(Gemm, Col2imAddMatchesDefinitionBitwise) {
  Rng rng(101);
  for_each_im2col_shape([&](int ci, int h, int w, int k, int stride, int pad,
                            int ho, int wo) {
    const std::size_t n = static_cast<std::size_t>(ci) * k * k * ho * wo;
    Tensor col = Tensor::randn({static_cast<int>(n)}, rng);
    Tensor x = Tensor::randn({ci, h, w}, rng);
    Tensor ref = x;
    // Naive scatter-add in (c, ky, kx, oh, ow) order into a non-zero x.
    const float* cp = col.data();
    for (int c = 0; c < ci; ++c)
      for (int ky = 0; ky < k; ++ky)
        for (int kx = 0; kx < k; ++kx)
          for (int oh = 0; oh < ho; ++oh)
            for (int ow = 0; ow < wo; ++ow, ++cp) {
              const int ih = oh * stride + ky - pad, iw = ow * stride + kx - pad;
              if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
              ref[(static_cast<std::size_t>(c) * h + ih) * w + iw] += *cp;
            }
    col2im_add(col.data(), ci, h, w, k, k, stride, pad, ho, wo, x.data());
    EXPECT_EQ(std::memcmp(x.data(), ref.data(), x.numel() * sizeof(float)), 0)
        << "ci=" << ci << " h=" << h << " w=" << w << " k=" << k
        << " s=" << stride << " p=" << pad;
  });
}

TEST(Gemm, Im2colRoundTripsThroughCol2im) {
  // col2im_add(im2col(x)) multiplies each pixel by the number of receptive
  // fields covering it; with k=1/s=1/p=0 that count is exactly 1.
  Rng rng(73);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  std::vector<float> col(static_cast<std::size_t>(3) * 16);
  im2col(x.data(), 3, 4, 4, 1, 1, 1, 0, 4, 4, col.data());
  Tensor back = x.zeros_like();
  col2im_add(col.data(), 3, 4, 4, 1, 1, 1, 0, 4, 4, back.data());
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(back[i], x[i]);
}

// --- Direct vs GEMM conv parity ---------------------------------------------

TEST(ConvParity, ForwardAcrossKernelStridePad) {
  Rng rng(79);
  for (int k : {1, 3, 5})
    for (int stride : {1, 2})
      for (int pad : {0, 1, 2}) {
        const int H = 8, W = 8;
        if ((H + 2 * pad - k) / stride + 1 <= 0) continue;
        Tensor x = Tensor::randn({2, 3, H, W}, rng);
        Tensor w = Tensor::randn({4, 3, k, k}, rng, 0.5f);
        Tensor b = Tensor::randn({4}, rng);
        Tensor direct = conv2d_forward(x, w, b, stride, pad, ConvAlgo::kDirect);
        Tensor gemm = conv2d_forward(x, w, b, stride, pad, ConvAlgo::kGemm);
        ASSERT_TRUE(direct.same_shape(gemm));
        for (std::size_t i = 0; i < direct.numel(); ++i)
          EXPECT_NEAR(direct[i], gemm[i], 1e-4f)
              << "k=" << k << " s=" << stride << " p=" << pad << " i=" << i;
      }
}

TEST(ConvParity, BackwardAcrossKernelStridePad) {
  Rng rng(83);
  for (int k : {1, 3, 5})
    for (int stride : {1, 2})
      for (int pad : {0, 1, 2}) {
        const int H = 8, W = 8;
        int Ho = (H + 2 * pad - k) / stride + 1;
        int Wo = (W + 2 * pad - k) / stride + 1;
        if (Ho <= 0 || Wo <= 0) continue;
        Tensor x = Tensor::randn({2, 3, H, W}, rng);
        Tensor w = Tensor::randn({4, 3, k, k}, rng, 0.5f);
        Tensor gout = Tensor::randn({2, 4, Ho, Wo}, rng);

        Tensor gw_d({4, 3, k, k}), gw_g({4, 3, k, k});
        conv2d_grad_weight(x, gout, gw_d, stride, pad, ConvAlgo::kDirect);
        conv2d_grad_weight(x, gout, gw_g, stride, pad, ConvAlgo::kGemm);
        for (std::size_t i = 0; i < gw_d.numel(); ++i)
          EXPECT_NEAR(gw_d[i], gw_g[i], 1e-3f)
              << "gw k=" << k << " s=" << stride << " p=" << pad;

        Tensor gx_d = x.zeros_like(), gx_g = x.zeros_like();
        conv2d_grad_input(w, gout, gx_d, stride, pad, ConvAlgo::kDirect);
        conv2d_grad_input(w, gout, gx_g, stride, pad, ConvAlgo::kGemm);
        for (std::size_t i = 0; i < gx_d.numel(); ++i)
          EXPECT_NEAR(gx_d[i], gx_g[i], 1e-4f)
              << "gx k=" << k << " s=" << stride << " p=" << pad;
      }
}

TEST(ConvParity, GradAccumulationIsAdditive) {
  // Backward kernels must accumulate (+=) into existing grads, not overwrite.
  Rng rng(89);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng);
  Tensor gout = Tensor::randn({1, 3, 6, 6}, rng);
  Tensor gw_once({3, 2, 3, 3});
  conv2d_grad_weight(x, gout, gw_once, 1, 1, ConvAlgo::kGemm);
  Tensor gw_twice({3, 2, 3, 3});
  conv2d_grad_weight(x, gout, gw_twice, 1, 1, ConvAlgo::kGemm);
  conv2d_grad_weight(x, gout, gw_twice, 1, 1, ConvAlgo::kGemm);
  for (std::size_t i = 0; i < gw_once.numel(); ++i)
    EXPECT_NEAR(gw_twice[i], 2.0f * gw_once[i], 1e-3f);
}

TEST(ConvParity, GradientsRejectMismatchedShapes) {
  // The kernels index gw, gx and gout by the forward's dims, so a shape
  // that disagrees must throw before any of them reads or writes.
  Rng rng(97);
  Tensor x = Tensor::randn({1, 3, 8, 8}, rng);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
  Tensor gout = Tensor::randn({1, 4, 8, 8}, rng);
  for (ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kGemm}) {
    Tensor gw_bad({4, 2, 3, 3});  // Ci = 2, x has 3
    EXPECT_THROW(conv2d_grad_weight(x, gout, gw_bad, 1, 1, algo), Error);
    Tensor gx_bad({1, 3, 8, 7});  // not the forward input's shape
    EXPECT_THROW(conv2d_grad_input(w, gout, gx_bad, 1, 1, algo), Error);
    Tensor gout_bad = Tensor::randn({1, 4, 7, 8}, rng);  // Ho = 7, not 8
    Tensor gw({4, 3, 3, 3});
    EXPECT_THROW(conv2d_grad_weight(x, gout_bad, gw, 1, 1, algo), Error);
    Tensor gx = x.zeros_like();
    EXPECT_THROW(conv2d_grad_input(w, gout_bad, gx, 1, 1, algo), Error);
    // gout from a stride-1 conv handed to a stride-2 gradient.
    EXPECT_THROW(conv2d_grad_weight(x, gout, gw, 2, 1, algo), Error);
  }
}

TEST(ConvDispatch, HeuristicPrefersDirectForTinyAndGemmForLarge) {
  // A 2x2 output is too small to amortize packing; a UNet-sized 3x3 conv
  // over a 32x32 plane must take the GEMM path.
  EXPECT_FALSE(conv2d_use_gemm(4, 4, 3, 3, 2, 2));
  EXPECT_TRUE(conv2d_use_gemm(16, 16, 3, 3, 32, 32));
}

}  // namespace
}  // namespace pp::nn
