#include "nn/quant.hpp"

#include <cmath>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace pp::nn {

namespace {

thread_local Precision t_precision = Precision::kFp32;

/// Process-wide registry of quantized weight tables, keyed by the fp32
/// tensor's data pointer (stable for a loaded model's lifetime; the
/// registrar below removes entries before the tensor dies).
struct Store {
  std::mutex mu;
  std::unordered_map<const float*, std::shared_ptr<const QuantizedWeight>>
      map;
};

Store& store() {
  static Store s;
  return s;
}

inline std::uint16_t to_bf16(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  // Round-to-nearest-even on the dropped 16 bits.
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

/// Pure scalar quantization so the tables are bit-identical no matter
/// which ISA this process dispatches.
std::shared_ptr<const QuantizedWeight> quantize_tensor(const Tensor& t) {
  auto qw = std::make_shared<QuantizedWeight>();
  qw->rows = t.dim(0);
  qw->cols = static_cast<int>(t.numel()) / qw->rows;
  const std::size_t n = t.numel();
  const float* x = t.data();
  qw->q16.resize(n);
  qw->scales.resize(static_cast<std::size_t>(qw->rows));
  qw->bf16.resize(n);
  for (int r = 0; r < qw->rows; ++r) {
    const float* row = x + static_cast<std::size_t>(r) * qw->cols;
    std::int16_t* qrow = qw->q16.data() + static_cast<std::size_t>(r) * qw->cols;
    float absmax = 0.0f;
    for (int c = 0; c < qw->cols; ++c) {
      const float a = std::fabs(row[c]);
      if (a > absmax) absmax = a;
    }
    qw->scales[static_cast<std::size_t>(r)] = absmax / 127.0f;
    if (absmax == 0.0f) {
      std::memset(qrow, 0, sizeof(std::int16_t) * static_cast<std::size_t>(qw->cols));
      continue;
    }
    const float inv = 127.0f / absmax;
    for (int c = 0; c < qw->cols; ++c) {
      long v = std::lrintf(row[c] * inv);
      if (v > 127) v = 127;
      if (v < -127) v = -127;
      qrow[c] = static_cast<std::int16_t>(v);
    }
  }
  for (std::size_t i = 0; i < n; ++i) qw->bf16[i] = to_bf16(x[i]);
  return qw;
}

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kInt8: return "int8";
    case Precision::kBf16: return "bf16";
    case Precision::kFp32: break;
  }
  return "fp32";
}

Precision active_precision() { return t_precision; }

ScopedPrecision::ScopedPrecision(Precision p) : prev_(t_precision) {
  t_precision = p;
}

ScopedPrecision::~ScopedPrecision() { t_precision = prev_; }

namespace detail {

std::shared_ptr<const QuantizedWeight> find_quantized(const float* data) {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(data);
  return it == s.map.end() ? nullptr : it->second;
}

void note_quant_fallback() {
  static obs::Counter& c = obs::metrics().counter("nn.quant.fallback");
  c.add(1);
}

}  // namespace detail

QuantizedModelWeights::QuantizedModelWeights(const std::vector<Var>& params) {
  Store& s = store();
  for (const Var& p : params) {
    if (!p) continue;
    const Tensor& t = p->value;
    // Only GEMM operands get quantized: conv weights {Co,Ci,Kh,Kw} and
    // linear weights {O,I}. Biases and norm affines stay fp32.
    if (t.ndim() != 2 && t.ndim() != 4) continue;
    if (t.empty()) continue;
    auto qw = quantize_tensor(t);
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.map[t.data()] = qw;
    }
    keys_.push_back(t.data());
  }
}

QuantizedModelWeights::~QuantizedModelWeights() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  for (const float* k : keys_) s.map.erase(k);
}

}  // namespace pp::nn
