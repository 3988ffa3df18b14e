// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repository takes a pp::Rng (or a seed)
// explicitly; nothing reads global RNG state. This makes tests and benchmark
// tables reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>

namespace pp {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience samplers.
///
/// Copyable; copies continue the same stream independently. NOTE: that makes
/// a shared `Rng` a footgun in parallel code — concurrent draws race, and
/// even with a lock the interleaving (and thus every downstream value) would
/// depend on scheduling. Parallel consumers must each own a stream derived
/// up front with stream() / draw_seed() or fork() (see DESIGN.md, "RNG
/// stream discipline").
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : gen_(seed) {}

  /// Deterministically derives independent stream `stream_id` of
  /// `base_seed` — a pure function of its two arguments (counter-based
  /// splitmix64 mixing, no shared state), so stream k of seed s is the same
  /// generator no matter when, where, or in what order it is constructed.
  /// This is the primitive behind batch-split- and thread-count-invariant
  /// sampling: give every logical sample its own stream instead of
  /// interleaving draws from one generator.
  static Rng stream(std::uint64_t base_seed, std::uint64_t stream_id);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal sample.
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  /// Pick a uniformly random index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Derive an independent child stream (for per-thread / per-sample use).
  Rng fork();

  /// Draws a 64-bit stream base, consuming exactly ONE engine step. Pairing
  /// this with stream() — `Rng::stream(rng.draw_seed(), k)` — keeps the
  /// parent's consumption proportional to the number of logical samples, so
  /// regrouping samples into different batches cannot shift which stream a
  /// sample receives.
  std::uint64_t draw_seed();

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace pp
