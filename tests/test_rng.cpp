// Tests for the deterministic RNG: reproducibility, distribution moments,
// stream independence.
#include "photonics/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "photonics/rng_counter_detail.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {
namespace {

TEST(Rng, SameSeedSameStream) {
  rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, FirstOutputMatchesGenerator) {
  static_assert(rng::first_output(7) == rng{7}());
  for (const std::uint64_t seed :
       {0ULL, 1ULL, 42ULL, 0x1111ULL, 0x9e3779b97f4a7c15ULL, ~0ULL}) {
    EXPECT_EQ(rng::first_output(seed), rng{seed}()) << seed;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  rng g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  rng g(11);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = g.uniform();
    sum += u;
    sq += u * u;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  rng g(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = g.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, BelowStaysInRange) {
  rng g(17);
  for (const std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 255ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(g.below(n), n);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  rng g(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  rng g(23);
  constexpr std::uint64_t buckets = 8;
  std::vector<int> counts(buckets, 0);
  constexpr int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[g.below(buckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, 0.05 * n / 8.0);
  }
}

TEST(Rng, NormalMoments) {
  rng g(29);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = g.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  rng g(31);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = g.normal(3.0, 2.0);
    sum += x;
    sq += (x - 3.0) * (x - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  rng g(47);
  double sum = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += g.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SplitMixExpansionIsDeterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// ------------------------------------------------- counter-based streams

TEST(CounterRng, StreamIsPureFunctionOfKey) {
  // Two generators built from the same key replay the same draws — no
  // hidden global state, no dependence on construction order.
  const std::uint64_t key = counter_rng::key_of(42, 7, 1, 1234);
  counter_rng a{key};
  counter_rng b{counter_rng::key_of(42, 7, 1, 1234)};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(CounterRng, KeyComponentsAllMatter) {
  // Changing any single key component (seed, link, direction, sequence)
  // must decorrelate the stream, including zero <-> nonzero swaps in the
  // trailing components.
  const std::uint64_t base = counter_rng::key_of(1, 2, 3, 4);
  const std::uint64_t variants[] = {
      counter_rng::key_of(9, 2, 3, 4), counter_rng::key_of(1, 9, 3, 4),
      counter_rng::key_of(1, 2, 9, 4), counter_rng::key_of(1, 2, 3, 9),
      counter_rng::key_of(1, 2, 3, 0), counter_rng::key_of(1, 2, 0, 4),
  };
  for (const std::uint64_t v : variants) {
    EXPECT_NE(v, base);
    counter_rng a{base}, b{v};
    int same = 0;
    for (int i = 0; i < 100; ++i) {
      if (a() == b()) ++same;
    }
    EXPECT_EQ(same, 0);
  }
}

TEST(CounterRng, BelowStaysInRange) {
  counter_rng g{counter_rng::key_of(17)};
  for (const std::uint64_t n : {1ULL, 2ULL, 8ULL, 255ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(g.below(n), n);
  }
}

TEST(CounterRng, UniformInUnitInterval) {
  counter_rng g{counter_rng::key_of(7)};
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, PoissonMomentsAcrossKeys) {
  // The fabric draws one poisson per (key) stream; the ensemble over
  // consecutive sequence numbers must still have Poisson moments.
  constexpr double mean = 3.5;
  double sum = 0.0, sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    counter_rng g{counter_rng::key_of(37, 0, 0, static_cast<std::uint64_t>(i))};
    const double x = static_cast<double>(g.poisson(mean));
    sum += x;
    sq += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(sum / n, mean, 0.1);
  EXPECT_NEAR(sq / n, mean, 0.1 * mean);
}

TEST(CounterRng, PoissonLargeMeanGaussianRegime) {
  counter_rng g{counter_rng::key_of(41)};
  double sum = 0.0, sq = 0.0;
  constexpr int n = 20000;
  constexpr double mean = 1e4;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(g.poisson(mean));
    sum += x;
    sq += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(sum / n, mean, 5.0);
  // Poisson variance == mean.
  EXPECT_NEAR(sq / n, mean, 0.05 * mean);
}

TEST(CounterRng, PoissonZeroAndNegativeMean) {
  counter_rng g{counter_rng::key_of(43)};
  EXPECT_EQ(g.poisson(0.0), 0u);
  EXPECT_EQ(g.poisson(-1.0), 0u);
}

// ------------------------------------------------ counter-based normals

TEST(CounterNormal, Moments) {
  const std::uint64_t key = counter_rng::key_of(61);
  double sum = 0.0, sq = 0.0, cube = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = counter_normal(key, static_cast<std::uint64_t>(i));
    sum += x;
    sq += x * x;
    cube += x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);     // mean
  EXPECT_NEAR(sq / n, 1.0, 0.02);      // variance
  EXPECT_NEAR(cube / n, 0.0, 0.05);    // skew
}

TEST(CounterNormal, TailQuantilesMatchNormalCdf) {
  // The inverse-CDF construction must populate the tails with the right
  // mass (the polar method gets this implicitly; here it is the explicit
  // contract of the Acklam approximation + tail branch).
  const std::uint64_t key = counter_rng::key_of(67);
  constexpr int n = 200000;
  int beyond_1 = 0, beyond_2 = 0, beyond_3 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = std::abs(counter_normal(key, i));
    beyond_1 += x > 1.0;
    beyond_2 += x > 2.0;
    beyond_3 += x > 3.0;
  }
  EXPECT_NEAR(beyond_1 / static_cast<double>(n), 0.3173, 0.01);
  EXPECT_NEAR(beyond_2 / static_cast<double>(n), 0.0455, 0.004);
  EXPECT_NEAR(beyond_3 / static_cast<double>(n), 0.0027, 0.001);
}

TEST(CounterNormal, DrawIndexIsDirectlyAddressable) {
  // Draw i is a pure function of (key, i): reading draws out of order, or
  // twice, reproduces the in-order stream exactly.
  const std::uint64_t key = counter_rng::key_of(71);
  std::vector<double> forward(257);
  for (std::size_t i = 0; i < forward.size(); ++i) {
    forward[i] = counter_normal(key, i);
  }
  for (std::size_t i = forward.size(); i-- > 0;) {
    EXPECT_EQ(counter_normal(key, i), forward[i]);
  }
}

TEST(CounterNormal, KeysAreIndependent) {
  const std::uint64_t a = counter_rng::key_of(73, 1);
  const std::uint64_t b = counter_rng::key_of(73, 2);
  int same = 0;
  double corr = 0.0;
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double xa = counter_normal(a, i);
    const double xb = counter_normal(b, i);
    same += xa == xb;
    corr += xa * xb;
  }
  EXPECT_EQ(same, 0);
  EXPECT_NEAR(corr / n, 0.0, 0.05);
}

TEST(CounterStream, SequentialMatchesDirectIndexing) {
  const std::uint64_t key = counter_rng::key_of(79);
  counter_stream s(key);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s.normal(), counter_normal(key, i));
  }
  EXPECT_EQ(s.cursor(), 100u);
}

TEST(CounterStream, SkipEqualsDrawingAndDiscarding) {
  const std::uint64_t key = counter_rng::key_of(83);
  counter_stream skipped(key), drawn(key);
  skipped.skip(1000);
  for (int i = 0; i < 1000; ++i) (void)drawn.normal();
  EXPECT_EQ(skipped.cursor(), drawn.cursor());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(skipped.normal(), drawn.normal());
}

TEST(CounterStream, FillMatchesScalarDraws) {
  // fill_normal routes through the dispatched SIMD kernel; it must hand
  // out exactly the draws that repeated normal() calls would, and leave
  // the cursor in the same place.
  const std::uint64_t key = counter_rng::key_of(89);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{513}, std::size_t{2048}}) {
    counter_stream bulk(key), scalar(key);
    std::vector<double> out(n);
    bulk.fill_normal(out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], scalar.normal());
    EXPECT_EQ(bulk.cursor(), scalar.cursor());
  }
}

TEST(CounterStream, RowFillMatchesPerRowFill) {
  // The cross-row fill packs rows back to back into the kernel's 512-draw
  // blocks; every tier must still hand row r draw i of keys[r] at
  // base + i, over row counts and lengths that split rows across blocks
  // and 64-draw tail words (600 spans two blocks on its own).
  std::vector<simd::level> levels;
  for (const simd::level l : {simd::level::scalar, simd::level::sse4,
                              simd::level::avx2, simd::level::avx512}) {
    if (simd::level_supported(l)) levels.push_back(l);
  }
  std::size_t tails = 0;
  for (const std::size_t rows : {1, 2, 3, 12, 65}) {
    std::vector<std::uint64_t> keys(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      keys[r] = counter_rng::key_of(103, r);
    }
    for (const std::size_t n : {1, 4, 7, 63, 64, 65, 600}) {
      for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{29}}) {
        std::vector<double> reference(rows * n);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t i = 0; i < n; ++i) {
            const double u = detail::counter_uniform_open(keys[r], base + i);
            tails += u < detail::kInvNormPLow || u > detail::kInvNormPHigh;
            reference[r * n + i] = counter_normal(keys[r], base + i);
          }
        }
        for (const simd::level l : levels) {
          std::vector<double> out(rows * n, -1.0);
          simd::table_for(l).fill_normal(keys.data(), rows, base, out.data(),
                                         n);
          EXPECT_EQ(out, reference) << simd::level_name(l) << " rows "
                                    << rows << " n " << n << " base " << base;
        }
      }
    }
  }
  EXPECT_GT(tails, 0u);  // the tail branch is exercised, not just central
}

}  // namespace
}  // namespace onfiber::phot
