// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repository takes a pp::Rng (or a seed)
// explicitly; nothing reads global RNG state. This makes tests and benchmark
// tables reproducible run-to-run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pp {

/// A 64-bit Mersenne Twister with convenience samplers.
///
/// The engine is MT19937-64, computed in-repo: its output sequence is the one
/// the C++ standard fixes for std::mt19937_64 (a seed gives the same words).
/// A normal draw is libstdc++'s algorithm, also computed in-repo (see
/// normal()); the uniform, integer and Bernoulli draws go through the std
/// distributions.
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

  /// Standard normal sample: what a fresh
  /// std::normal_distribution<double>(0, 1) returns under libstdc++.
  /// Marsaglia's polar method on pairs of generate_canonical<double, 53>
  /// uniforms; the first coordinate of the accepted pair is discarded.
  double normal();

  /// Normal with given mean / stddev: normal()'s value times stddev plus
  /// mean, as std::normal_distribution<double>(mean, stddev) computes it.
  double normal(double mean, double stddev);

  /// Writes n standard normal samples to out: exactly the values of n
  /// successive static_cast<float>(normal()) calls, and the engine ends
  /// where those calls would leave it, so fills of n and then m values
  /// equal one fill of n + m. The draws are made in bulk, without a
  /// data-dependent branch per draw.
  void fill_normal(float* out, std::size_t n);

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

 private:
  /// MT19937-64 state, seeding, twist and tempering as the standard defines
  /// them; a UniformRandomBitGenerator, so the std distributions draw from
  /// it exactly as from std::mt19937_64.
  class Engine {
   public:
    using result_type = std::uint64_t;
    static constexpr std::size_t kWords = 312;

    explicit Engine(std::uint64_t seed);
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()();
    /// The next n outputs, in order: n operator() calls.
    void fill(result_type* out, std::size_t n);

   private:
    void twist();

    result_type words_[kWords];
    std::size_t pos_;  ///< next word to temper; kWords = twist first
  };

  Engine gen_;
};

}  // namespace pp
