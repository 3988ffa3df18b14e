#include "nn/tensor.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <iostream>  // constructs std::cerr before the initializer below logs
#include <sstream>

#include "common/error.hpp"
#include "nn/simd_kernels.hpp"
#include "obs/log.hpp"

namespace pp::nn {

namespace {

#ifdef __GLIBC__
// Heap policy (DESIGN.md "Heap policy"). glibc's adaptive thresholds settle
// at the largest block freed so far and trim the heap top at twice that,
// while one UNet::infer swings the heap by more, so every call handed its
// activations back to the kernel and the next call took a minor fault per
// page. Pin both thresholds at the ceiling the adaptive rule climbs to:
// mmap at 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), trim at its 2x,
// 64 MiB. A namespace-
// scope initializer here runs before main in every binary that links tensor
// storage, so no call site can forget it. mallopt returns 1 when it applied
// a value; ASan's allocator ignores it.
struct PinHeapThresholds {
  PinHeapThresholds() {
    if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1)
      PP_LOG(Debug) << "heap policy: mallopt(M_MMAP_THRESHOLD) not applied";
    if (mallopt(M_TRIM_THRESHOLD, 64 << 20) != 1)
      PP_LOG(Debug) << "heap policy: mallopt(M_TRIM_THRESHOLD) not applied";
  }
} const g_pin_heap_thresholds;
#endif

}  // namespace

std::size_t shape_numel(const std::vector<int>& shape) {
  PP_REQUIRE_MSG(!shape.empty(), "empty tensor shape");
  std::size_t n = 1;
  for (int d : shape) {
    PP_REQUIRE_MSG(d > 0, "non-positive tensor dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(shape_numel(shape_), 0.0f);
}

Tensor Tensor::full(std::vector<int> shape, float v) {
  Tensor t(std::move(shape));
  t.fill(v);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::from_data(std::vector<int> shape, std::vector<float> data) {
  PP_REQUIRE_MSG(shape_numel(shape) == data.size(),
                 "tensor data size does not match shape");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(data.begin(), data.end());
  return t;
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  PP_REQUIRE_MSG(shape_numel(shape) == numel(), "reshape changes volume");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  PP_REQUIRE_MSG(same_shape(other), "add_scaled shape mismatch");
  detail::active_kernels().axpy(data_.data(), other.data_.data(), scale,
                                data_.size());
}

float Tensor::squared_norm() const {
  double s = 0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(s);
}

float Tensor::max_abs() const {
  float m = 0;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ",";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace pp::nn
