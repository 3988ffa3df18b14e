// The optimizer of the from-scratch NN library.
#pragma once

#include <vector>

#include "nn/autograd.hpp"

namespace pp::nn {

/// Adam (Kingma & Ba) with bias correction; the training optimizer for the
/// diffusion model and both baselines.
class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  void step();
  void zero_grad() { nn::zero_grad(params_); }
  long long steps_taken() const { return t_; }

 private:
  std::vector<Var> params_;
  std::vector<Tensor> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  long long t_ = 0;
};

}  // namespace pp::nn
