#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pp::nn {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  PP_REQUIRE(lr > 0 && beta1 >= 0 && beta1 < 1 && beta2 >= 0 && beta2 < 1);
  for (const auto& p : params_) {
    PP_REQUIRE_MSG(p && p->requires_grad, "Adam: non-trainable parameter");
    m_.push_back(p->value.zeros_like());
    v_.push_back(p->value.zeros_like());
  }
}

void Adam::step() {
  ++t_;
  float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Node& p = *params_[i];
    if (!p.has_grad()) continue;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t k = 0; k < m.numel(); ++k) {
      float g = p.grad[k];
      m[k] = beta1_ * m[k] + (1.0f - beta1_) * g;
      v[k] = beta2_ * v[k] + (1.0f - beta2_) * g * g;
      float mhat = m[k] / bc1;
      float vhat = v[k] / bc2;
      p.value[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace pp::nn
