// Dense float tensors (NCHW convention for 4-D data).
//
// This is the storage type of the from-scratch neural network library that
// replaces libtorch in this reproduction. Tensors are plain value types:
// shape + contiguous float buffer. All layout is row-major with the last
// dimension fastest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pp::nn {

/// Minimal allocator that hands out 64-byte-aligned storage so tensor data
/// starts on a cache-line boundary (and full AVX registers load aligned).
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlign));
  }
  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

using AlignedVec = std::vector<float, AlignedAllocator<float>>;

/// Kernel scratch (col buffers, packed panels): n uninitialized,
/// 64-byte-aligned elements, freed when the owning scope ends; null when n
/// is 0. Not AlignedVec, whose zero-fill costs about as much as the conv
/// that reads the buffer. Exactly n, so ASan checks every read; the heap
/// policy (tensor.cpp) keeps the freed block mapped for the next call.
template <typename T>
class Scratch {
 public:
  explicit Scratch(std::size_t n = 0)
      : p_(n ? AlignedAllocator<T>().allocate(n) : nullptr) {}
  T* get() const { return p_.get(); }

 private:
  struct Free {
    void operator()(T* p) const { AlignedAllocator<T>().deallocate(p, 0); }
  };
  std::unique_ptr<T[], Free> p_;
};

class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape. Every dimension
  /// must be positive.
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<int> shape, float v);
  /// I.i.d. normal entries with the given stddev.
  static Tensor randn(std::vector<int> shape, Rng& rng, float stddev = 1.0f);
  /// Wraps an explicit buffer; data.size() must match the shape volume.
  static Tensor from_data(std::vector<int> shape, std::vector<float> data);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const { return shape_[static_cast<std::size_t>(i)]; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  AlignedVec& vec() { return data_; }
  const AlignedVec& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 4-D accessor (n, c, h, w); tensor must be 4-dimensional.
  float& at4(int n, int c, int h, int w) {
    return data_[((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
                     shape_[3] +
                 w];
  }
  float at4(int n, int c, int h, int w) const {
    return data_[((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
                     shape_[3] +
                 w];
  }

  /// 2-D accessor (r, c); tensor must be 2-dimensional.
  float& at2(int r, int c) {
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  float at2(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }

  void fill(float v);
  /// Returns a tensor of the same shape filled with zeros.
  Tensor zeros_like() const { return Tensor(shape_); }

  /// Reshape without copying data; volume must be preserved.
  Tensor reshaped(std::vector<int> shape) const;

  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  /// Elementwise helpers used by optimizers and tests.
  void add_scaled(const Tensor& other, float scale);  // this += scale * other
  float squared_norm() const;
  float max_abs() const;

  std::string shape_str() const;

 private:
  std::vector<int> shape_;
  AlignedVec data_;
};

/// Volume of a shape; throws on non-positive dimensions.
std::size_t shape_numel(const std::vector<int>& shape);

}  // namespace pp::nn
