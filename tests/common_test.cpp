// Tests for the shared utilities: RNG determinism, parallel_for, errors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/env.hpp"

namespace pp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    same += (a.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20));
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalHasApproximateMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // Child stream differs from the parent continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    same += (a.uniform_int(0, 1 << 20) == child.uniform_int(0, 1 << 20));
  EXPECT_LT(same, 5);
}

TEST(Rng, StreamIsPureFunctionOfSeedAndId) {
  // Same (base, id) -> identical sequence, regardless of construction order
  // or any other streams constructed in between.
  Rng a = Rng::stream(123, 7);
  Rng noise1 = Rng::stream(999, 0);
  (void)noise1.normal();
  Rng b = Rng::stream(123, 7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Rng, StreamsWithDifferentIdsAreIndependent) {
  Rng a = Rng::stream(123, 0);
  Rng b = Rng::stream(123, 1);
  Rng c = Rng::stream(124, 0);  // adjacent base must not alias id+1
  int same_ab = 0, same_ac = 0;
  for (int i = 0; i < 100; ++i) {
    int va = a.uniform_int(0, 1 << 20);
    same_ab += (va == b.uniform_int(0, 1 << 20));
    same_ac += (va == c.uniform_int(0, 1 << 20));
  }
  EXPECT_LT(same_ab, 5);
  EXPECT_LT(same_ac, 5);
}

TEST(Rng, DrawSeedConsumesExactlyOneStep) {
  // Drawing k seeds one call at a time equals k steps of the engine in one
  // burst: the property that makes per-sample stream assignment
  // batch-split invariant.
  Rng a(42);
  std::mt19937_64 b(42);
  std::vector<std::uint64_t> one_by_one, burst;
  for (int i = 0; i < 8; ++i) one_by_one.push_back(a.draw_seed());
  for (int i = 0; i < 8; ++i) burst.push_back(b());
  EXPECT_EQ(one_by_one, burst);
}

TEST(Rng, EngineIsStdMt19937_64) {
  // The in-repo engine's output sequence is the one the standard fixes,
  // across many twists, for edge seeds and a seed drawn from a stream.
  const std::uint64_t seeds[] = {0, 1, 5489, ~std::uint64_t{0},
                                 Rng::stream(123, 7).draw_seed()};
  for (std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) mismatches += rng.draw_seed() != ref();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
  // [rand.predef]: the 10000th output of a default-seeded mt19937_64.
  Rng rng(5489);
  for (int i = 1; i < 10000; ++i) rng.draw_seed();
  EXPECT_EQ(rng.draw_seed(), 9981545732273789042ULL);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The normal draw is libstdc++'s algorithm; other standard libraries'
// normal_distribution is not the reference.
#ifdef __GLIBCXX__
#define PP_REQUIRE_LIBSTDCXX()
#else
#define PP_REQUIRE_LIBSTDCXX() \
  GTEST_SKIP() << "reference is libstdc++'s normal_distribution"
#endif

TEST(Rng, NormalIsLibstdcxxPolarBitForBit) {
  // normal() and normal(mean, sd) return exactly what a fresh
  // std::normal_distribution returns on the same engine state.
  PP_REQUIRE_LIBSTDCXX();
  int mismatches = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 3000; ++i) {
      if (i % 3 == 0) {
        mismatches += !same_bits(
            rng.normal(), std::normal_distribution<double>(0.0, 1.0)(ref));
      } else {
        const double mean = i % 7 - 3.0, sd = 0.25 + i % 5;
        mismatches += !same_bits(
            rng.normal(mean, sd),
            std::normal_distribution<double>(mean, sd)(ref));
      }
    }
    EXPECT_EQ(rng.draw_seed(), ref()) << "seed " << seed;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Rng, FillNormalEqualsPerDrawReference) {
  // fill_normal(out, n) is n per-draw normals cast to float, and leaves the
  // engine where they would. Lengths straddle the 156-pair state, the
  // 256-attempt block and 312-word twists; a prefix of 0-311 words (odd
  // ones too) shifts where the fill starts within the state.
  PP_REQUIRE_LIBSTDCXX();
  const std::size_t lengths[] = {0,   1,   2,   155, 156,  157,  255,
                                 256, 257, 311, 312, 313, 1024, 5000};
  std::vector<float> got, want;
  std::size_t prefix = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (std::size_t n : lengths) {
      const std::uint64_t s = Rng::stream(seed, n).draw_seed();
      Rng rng(s);
      std::mt19937_64 ref(s);
      for (std::size_t i = 0; i < prefix; ++i)
        ASSERT_EQ(rng.draw_seed(), ref());
      got.assign(n, 0.0f);
      want.resize(n);
      rng.fill_normal(got.data(), n);
      for (float& v : want)
        v = static_cast<float>(std::normal_distribution<double>(0.0, 1.0)(ref));
      // memcmp may not take the null data() of an empty vector.
      ASSERT_EQ(n == 0 ? 0 : std::memcmp(got.data(), want.data(),
                                         n * sizeof(float)),
                0)
          << "seed " << seed << " n " << n << " prefix " << prefix;
      ASSERT_EQ(rng.draw_seed(), ref())
          << "seed " << seed << " n " << n << " prefix " << prefix;
      prefix = (prefix + 1) % 312;
    }
  }
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ChunksPartitionRange) {
  std::atomic<long long> total{0};
  parallel_for_chunks(0, 777, [&](std::size_t lo, std::size_t hi) {
    long long s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<long long>(i);
    total.fetch_add(s);
  });
  EXPECT_EQ(total.load(), 777LL * 776 / 2);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 57) throw Error("boom");
                            }),
               Error);
}

TEST(Parallel, ReentrantSequentialJobs) {
  // Two consecutive jobs must not interfere.
  std::atomic<int> a{0}, b{0};
  parallel_for(0, 500, [&](std::size_t) { a.fetch_add(1); });
  parallel_for(0, 300, [&](std::size_t) { b.fetch_add(1); });
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 300);
}

TEST(Parallel, NestedCallRunsInline) {
  // The pool runs one job at a time: a call from inside a chunk must not
  // wait for the job its own caller holds.
  if (parallel_thread_count() <= 1)
    GTEST_SKIP() << "a width-1 pool never nests";
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(0, kOuter, [&](std::size_t i) {
    parallel_for(0, kInner,
                 [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Strings only: a pool is never built at any of these widths.
TEST(Parallel, ThreadCountParseIsStrictAndBounded) {
  // PP_THREADS's bounds through the shared strict parser; 0 = rejected.
  auto parse_thread_count = [](const char* s) {
    return obs::parse_bounded(s, 1, kMaxPoolThreads).value_or(0);
  };
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("256"), kMaxPoolThreads);
  EXPECT_EQ(parse_thread_count("257"), 0u);
  EXPECT_EQ(parse_thread_count("100000"), 0u);
  EXPECT_EQ(parse_thread_count("4abc"), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("-2"), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    PP_REQUIRE_MSG(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  double first = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), first + 1.0);
}

}  // namespace
}  // namespace pp
