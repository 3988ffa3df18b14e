// Reduced-precision inference tier (see DESIGN.md "Quantized kernel
// tier").
//
// Weights are quantized ONCE, when a model's parameters are registered in
// a QuantizedModelWeights. Two renderings are built
// per 2-D/4-D weight tensor:
//
//   * int8: per-output-channel symmetric quantization. Row r (output
//     channel) gets scale s_r = absmax_r / 127 and values
//     q = round_to_nearest_even(x / s_r) clamped to [-127, 127]. The
//     int8-range values are stored widened into int16 lanes so the vector
//     GEMM kernels run plain loads + madd_epi16 with no sign-extension
//     shuffles (storage is 2 B/value — the speed win comes from halved
//     GEMM bandwidth and doubled MACs/instruction, not from the resident
//     footprint).
//   * bf16: round-to-nearest-even truncation to the high 16 bits of the
//     IEEE float. At GEMM time the weight panel is widened back to fp32
//     (exact) and the normal fp32 kernels run — a storage/bandwidth tier,
//     not a separate arithmetic.
//
// Quantization itself is pure scalar arithmetic, so the tables are
// identical no matter which ISA the process dispatches — per-(ISA,
// precision) determinism starts from identical quantized operands.
//
// Which precision a forward pass uses is a thread-local knob
// (active_precision/ScopedPrecision) read by conv2d_forward and
// linear_forward on the calling thread. The product serves fp32 only; the
// reduced tiers are measured by the benchmark's kernel phase and by
// simd_test. Tensors that were never registered (or 1-D biases, which stay
// fp32 by design) silently fall back to the fp32 path and bump the
// "nn.quant.fallback" counter.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/autograd.hpp"

namespace pp::nn {

/// Inference precision tier. kFp32 is the default and the training path;
/// kBf16/kInt8 are opt-in reduced-precision inference tiers.
enum class Precision { kFp32, kBf16, kInt8 };

/// "fp32", "bf16" or "int8".
const char* precision_name(Precision p);

/// The precision tier conv2d_forward/linear_forward dispatch on for THIS
/// thread. Defaults to kFp32. The knob is thread-local so a pin covers only
/// the thread that drives the forward pass (worker-pool threads only run
/// pre-captured row chunks, so they never consult it).
Precision active_precision();

/// RAII pin of the calling thread's precision tier; restores the previous
/// value on destruction.
class ScopedPrecision {
 public:
  explicit ScopedPrecision(Precision p);
  ~ScopedPrecision();
  ScopedPrecision(const ScopedPrecision&) = delete;
  ScopedPrecision& operator=(const ScopedPrecision&) = delete;

 private:
  Precision prev_;
};

/// Immutable quantized renderings of one fp32 weight matrix {rows, cols}
/// (conv weights {Co, Ci*Kh*Kw}, linear weights {O, I}).
struct QuantizedWeight {
  int rows = 0;  ///< output channels
  int cols = 0;  ///< reduction depth
  std::vector<std::int16_t> q16;    ///< int8-range values in int16 lanes
  std::vector<float> scales;        ///< per-row dequant scale (absmax/127)
  std::vector<std::uint16_t> bf16;  ///< bf16 rendering of the same data
};

namespace detail {
/// Kernel-layer lookup keyed by the fp32 tensor's data pointer. Null when
/// the tensor was never registered — the caller falls back to fp32.
std::shared_ptr<const QuantizedWeight> find_quantized(const float* data);

/// Counts a reduced-precision forward that had to fall back to fp32
/// because the weight was not registered ("nn.quant.fallback").
void note_quant_fallback();
}  // namespace detail

/// RAII registrar: quantizes every 2-D/4-D parameter of a model (pure
/// scalar, once) and publishes the tables for kernel-layer lookup;
/// unregisters on destruction, so the tables must not outlive the weights
/// they were built from.
class QuantizedModelWeights {
 public:
  explicit QuantizedModelWeights(const std::vector<Var>& params);
  ~QuantizedModelWeights();
  QuantizedModelWeights(const QuantizedModelWeights&) = delete;
  QuantizedModelWeights& operator=(const QuantizedModelWeights&) = delete;

 private:
  std::vector<const float*> keys_;
};

}  // namespace pp::nn
