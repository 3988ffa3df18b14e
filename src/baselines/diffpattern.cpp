#include "baselines/diffpattern.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/ops.hpp"

namespace pp {

using nn::Tensor;
using nn::Var;

DiffPatternModel::DiffPatternModel(DiffPatternConfig cfg, Rng& rng)
    : cfg_(cfg), net_([&] {
        UNetConfig u;
        u.in_channels = 1;   // corrupted topology only
        u.out_channels = 1;  // x0 logits
        u.base_channels = cfg.base_channels;
        u.time_dim = 16;
        u.groups = std::min(4, cfg.base_channels);
        return u;
      }(), rng) {
  PP_REQUIRE(cfg_.topo_size % 4 == 0 && cfg_.topo_size >= 8);
  PP_REQUIRE(cfg_.T >= 4);
}

float DiffPatternModel::keep_probability(int t) const {
  if (t < 0) return 1.0f;
  // Smooth ramp: keep = 0.5 + 0.5 * cos(pi/2 * (t+1)/T)^2 in (0.5, 1).
  double u = static_cast<double>(t + 1) / static_cast<double>(cfg_.T);
  double c = std::cos(M_PI / 2.0 * u);
  return static_cast<float>(0.5 + 0.5 * c * c);
}

Tensor DiffPatternModel::encode_batch(const std::vector<Raster>& topos,
                                      const std::vector<std::size_t>& idx) const {
  int S = cfg_.topo_size;
  Tensor x({static_cast<int>(idx.size()), 1, S, S});
  for (std::size_t n = 0; n < idx.size(); ++n) {
    const Raster& t = topos[idx[n]];
    PP_REQUIRE_MSG(t.width() == S && t.height() == S,
                   "DiffPattern training topology has wrong size");
    float* p = x.data() + n * static_cast<std::size_t>(S) * S;
    for (std::size_t i = 0; i < static_cast<std::size_t>(S) * S; ++i)
      p[i] = t.data()[i] ? 1.0f : 0.0f;
  }
  return x;
}

float DiffPatternModel::train(const std::vector<Raster>& topologies, int steps,
                              int batch_size, float lr, Rng& rng) {
  PP_REQUIRE_MSG(!topologies.empty(), "DiffPattern: empty training set");
  nn::Adam opt(net_.parameters(), lr);
  float loss_val = 0;
  int S = cfg_.topo_size;
  for (int s = 0; s < steps; ++s) {
    std::vector<std::size_t> idx;
    for (int b = 0; b < batch_size; ++b)
      idx.push_back(rng.index(topologies.size()));
    Tensor x0 = encode_batch(topologies, idx);
    Tensor xt = x0;  // corrupted copy, mapped to [-1, 1] for the net
    std::vector<float> t_frac(idx.size());
    for (std::size_t n = 0; n < idx.size(); ++n) {
      int t = rng.uniform_int(0, cfg_.T - 1);
      t_frac[n] = static_cast<float>(t) / static_cast<float>(cfg_.T - 1);
      float keep = keep_probability(t);
      float* p = xt.data() + n * static_cast<std::size_t>(S) * S;
      for (std::size_t i = 0; i < static_cast<std::size_t>(S) * S; ++i) {
        float bit = p[i];
        if (!rng.bernoulli(keep)) bit = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        p[i] = 2.0f * bit - 1.0f;
      }
    }
    opt.zero_grad();
    Var logits = net_.forward(xt, t_frac);
    Var loss = nn::bce_with_logits(logits, nn::make_input(x0));
    nn::backward(loss);
    opt.step();
    loss_val = loss->value[0];
  }
  trained_ = true;
  return loss_val;
}

Raster DiffPatternModel::generate_topology(Rng& rng) const {
  PP_REQUIRE_MSG(trained_, "DiffPattern: generate before train");
  int S = cfg_.topo_size;
  std::size_t cells = static_cast<std::size_t>(S) * S;
  // Start from uniform random bits (keep ~ 0.5 at t = T-1).
  std::vector<float> bits(cells);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1.0f : 0.0f;

  for (int t = cfg_.T - 1; t >= 0; --t) {
    Tensor xt({1, 1, S, S});
    for (std::size_t i = 0; i < cells; ++i) xt[i] = 2.0f * bits[i] - 1.0f;
    std::vector<float> t_frac{static_cast<float>(t) /
                              static_cast<float>(cfg_.T - 1)};
    Tensor logits = net_.infer(xt, t_frac);
    // Sample x0 from the predicted Bernoulli, then renoise to level t-1.
    float keep_prev = keep_probability(t - 1);
    for (std::size_t i = 0; i < cells; ++i) {
      float p1 = 1.0f / (1.0f + std::exp(-logits[i]));
      float x0 = rng.bernoulli(p1) ? 1.0f : 0.0f;
      if (t == 0) {
        bits[i] = p1 >= 0.5f ? 1.0f : 0.0f;  // final: MAP decode
      } else {
        bits[i] = rng.bernoulli(keep_prev)
                      ? x0
                      : (rng.bernoulli(0.5) ? 1.0f : 0.0f);
      }
    }
  }
  Raster out(S, S);
  for (std::size_t i = 0; i < cells; ++i) out.data()[i] = bits[i] > 0.5f ? 1 : 0;
  return out;
}

}  // namespace pp
