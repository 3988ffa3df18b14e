#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/error.hpp"

namespace pp {

namespace {

/// splitmix64 finalizer: bijective 64-bit mixer with full avalanche, the
/// standard seed-derivation primitive (Steele et al., "Fast Splittable
/// Pseudorandom Number Generators").
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// MT19937-64 parameters (C++ [rand.predef], std::mt19937_64).
constexpr std::size_t kMid = 156;  // m
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;  // r = 31
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

/// One twist recurrence step. The conditional xor with kMatrixA is a mask,
/// not a branch: libstdc++ branches on y's low bit, which goes either way
/// half the time.
std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                         std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & ~kUpperMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

/// libstdc++'s generate_canonical<double, 53> over a 64-bit engine: one
/// word, converted to double and divided by 2^64; a result that rounded up
/// to 1 becomes nextafter(1, 0). The conversion splits the word into 32-bit
/// halves, which convert exactly, so the one addition rounds the word to
/// nearest as the C++ conversion does, without GCC's branch on the top bit.
/// The clamp fires with probability 2^-54; as a branch it is always predicted.
double canonical(std::uint64_t u) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const double d =
      static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::uint32_t>(u));
  const double c = d * 0x1p-64;
  return c < kBelowOne ? c : kBelowOne;
}

/// A polar-method attempt maps a pair of canonical uniforms to (x, y) in
/// [-1, 1)^2 and accepts it when 0 < r2 = x^2 + y^2 <= 1 (libstdc++ loops
/// while r2 > 1 || r2 == 0; r2 is never NaN). The bitwise & keeps the test
/// free of branches. This TU is built for the baseline ISA, so x*x + y*y is
/// never contracted into an FMA and rounds as libstdc++'s does.
double polar_coord(std::uint64_t u) { return 2.0 * canonical(u) - 1.0; }
bool polar_accepts(double r2) { return (r2 <= 1.0) & (r2 != 0.0); }

/// The value std::normal_distribution<double>(mean, stddev) returns for an
/// accepted pair (y, r2): y times the polar multiplier, scaled and shifted.
double polar_normal(double y, double r2, double mean, double stddev) {
  return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
}

}  // namespace

Rng::Engine::Engine(std::uint64_t seed) : pos_(kWords) {
  words_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i)
    words_[i] = 6364136223846793005ULL *
                    (words_[i - 1] ^ (words_[i - 1] >> 62)) +
                i;
}

void Rng::Engine::twist() {
  std::size_t k = 0;
  for (; k < kWords - kMid; ++k)
    words_[k] = twist_word(words_[k], words_[k + 1], words_[k + kMid]);
  for (; k < kWords - 1; ++k)
    words_[k] = twist_word(words_[k], words_[k + 1], words_[k + kMid - kWords]);
  words_[kWords - 1] =
      twist_word(words_[kWords - 1], words_[0], words_[kMid - 1]);
  pos_ = 0;
}

Rng::Engine::result_type Rng::Engine::operator()() {
  if (pos_ == kWords) twist();
  return temper(words_[pos_++]);
}

void Rng::Engine::fill(result_type* out, std::size_t n) {
  while (n > 0) {
    if (pos_ == kWords) twist();
    const std::size_t k = std::min(n, kWords - pos_);
    // A local source pointer: out may alias pos_ (both 64-bit unsigned),
    // and re-reading pos_ per word keeps GCC from vectorizing the loop.
    const result_type* src = words_ + pos_;
    for (std::size_t i = 0; i < k; ++i) out[i] = temper(src[i]);
    pos_ += k;
    out += k;
    n -= k;
  }
}

Rng Rng::stream(std::uint64_t base_seed, std::uint64_t stream_id) {
  // Mix the id through one round before combining so (base, id) pairs that
  // differ by simple arithmetic (base+1 vs id+1) cannot alias, then a second
  // round decorrelates the combined value.
  std::uint64_t s = splitmix64(base_seed ^ splitmix64(stream_id));
  // Avoid the degenerate all-zero seed.
  return Rng(s != 0 ? s : 0x9e3779b97f4a7c15ULL);
}

std::uint64_t Rng::draw_seed() { return gen_(); }

int Rng::uniform_int(int lo, int hi) {
  PP_REQUIRE(lo <= hi);
  return std::uniform_int_distribution<int>(lo, hi)(gen_);
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::uniform(double lo, double hi) {
  PP_REQUIRE(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

double Rng::normal() { return normal(0.0, 1.0); }

double Rng::normal(double mean, double stddev) {
  double y, r2;
  do {
    const double x = polar_coord(gen_());
    y = polar_coord(gen_());
    r2 = x * x + y * y;
  } while (!polar_accepts(r2));
  return polar_normal(y, r2, mean, stddev);
}

void Rng::fill_normal(float* out, std::size_t n) {
  // Pass 1 makes one polar attempt per pair of words and keeps the accepted
  // (y, r2) by advancing the write index by the accept bit; pass 2 takes the
  // logarithms. An attempt yields at most one value, so a block of at most
  // n attempts never draws past the n-th value.
  constexpr std::size_t kBlock = 256;
  std::uint64_t words[2 * kBlock];
  double ys[kBlock], r2s[kBlock];
  while (n > 0) {
    const std::size_t attempts = std::min(n, kBlock);
    gen_.fill(words, 2 * attempts);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < attempts; ++i) {
      const double x = polar_coord(words[2 * i]);
      const double y = polar_coord(words[2 * i + 1]);
      const double r2 = x * x + y * y;
      ys[kept] = y;
      r2s[kept] = r2;
      kept += polar_accepts(r2);
    }
    for (std::size_t i = 0; i < kept; ++i)
      out[i] = static_cast<float>(polar_normal(ys[i], r2s[i], 0.0, 1.0));
    out += kept;
    n -= kept;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(gen_);
}

std::size_t Rng::index(std::size_t n) {
  PP_REQUIRE(n > 0);
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen_);
}

Rng Rng::fork() {
  std::uint64_t child_seed = gen_();
  // Avoid the degenerate all-zero seed.
  return Rng(child_seed ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace pp
