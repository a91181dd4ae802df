// rng.hpp — deterministic, seedable random number generation.
//
// Every stochastic component in the library draws from an explicitly
// seeded stream: kernel noise and link bit errors from counter-based
// streams (counter_rng, counter_stream), traffic generators and
// synthetic datasets from xoshiro256++ (rng). The same seed produces
// bit-identical results on every platform, which the test suite relies
// on.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

namespace onfiber::phot {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Counter-based generator (splitmix-style). Every output is a pure
/// function of (key, draw index): the stream for a given key is the
/// same no matter when, where, or in what order other streams are
/// consumed. That is the property sequential generators cannot give a
/// parallel simulation — construct one stream per logical event
/// (e.g. per link traversal) and the draws are reproducible at any
/// shard or thread count.
///
/// Distribution helpers mirror `rng`'s semantics but are independent
/// implementations; they do not match xoshiro draw-for-draw.
class counter_rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr counter_rng(std::uint64_t key) : state_(key) {}

  /// Collapse up to four key words into one stream key. Each word is
  /// fully mixed before the next is absorbed, so (seed, id, 0, 1) and
  /// (seed, id, 1, 0) land in unrelated streams.
  [[nodiscard]] static constexpr std::uint64_t key_of(std::uint64_t a,
                                                      std::uint64_t b = 0,
                                                      std::uint64_t c = 0,
                                                      std::uint64_t d = 0) {
    std::uint64_t s = a;
    std::uint64_t k = splitmix64(s);
    s = k ^ b;
    k = splitmix64(s);
    s = k ^ c;
    k = splitmix64(s);
    s = k ^ d;
    return splitmix64(s);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() { return splitmix64(state_); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n). Requires n > 0 (Lemire multiply-shift).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) {
    __extension__ using u128 = unsigned __int128;
    const u128 wide = static_cast<u128>((*this)()) * static_cast<u128>(n);
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Standard normal deviate (polar method, no spare caching — streams
  /// here are short-lived, purity matters more than amortization).
  [[nodiscard]] double normal() {
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    return u * std::sqrt(-2.0 * std::log(s) / s);
  }

  /// Poisson deviate: Knuth for small means, Gaussian approximation for
  /// large ones (same thresholds as `rng::poisson`).
  [[nodiscard]] std::uint64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean > 256.0) {
      const double v =
          std::round(mean + std::sqrt(mean) * normal());
      return v < 0.0 ? 0 : static_cast<std::uint64_t>(v);
    }
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }

 private:
  std::uint64_t state_;
};

/// Standard normal deviate `index` of counter stream `key`, as a pure
/// function of both (counter-mode splitmix64 uniform through the inverse
/// normal CDF). Draw i of stream k is independent of every other draw:
/// no state, no draw order, no spare caching — which is what lets the
/// sample-plane noise fills vectorize and split across threads while
/// staying bit-identical. Defined in rng.cpp (compiled exactly once,
/// with -ffp-contract=off) so every caller sees one bit pattern.
[[nodiscard]] double counter_normal(std::uint64_t key, std::uint64_t index);

/// A positioned view over one counter-based normal stream: (key, cursor).
/// Scalar draws and bulk fills consume consecutive draw indices; `skip`
/// advances the cursor in O(1) without generating (the property the
/// batched GEMM uses to hand disjoint sample ranges of one row to
/// different workers). Copying a stream copies its position.
class counter_stream {
 public:
  explicit constexpr counter_stream(std::uint64_t key) : key_(key) {}

  [[nodiscard]] constexpr std::uint64_t key() const { return key_; }
  [[nodiscard]] constexpr std::uint64_t cursor() const { return cursor_; }
  constexpr void seek(std::uint64_t index) { cursor_ = index; }
  constexpr void skip(std::uint64_t draws) { cursor_ += draws; }

  /// Next standard normal deviate (consumes one draw index).
  [[nodiscard]] double normal() { return counter_normal(key_, cursor_++); }

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Fill `out` with the next out.size() deviates of this stream, via the
  /// runtime-dispatched SIMD kernel (simd.hpp). Bit-identical to calling
  /// `normal()` out.size() times, at every dispatch level.
  void fill_normal(std::span<double> out);

 private:
  std::uint64_t key_;
  std::uint64_t cursor_ = 0;
};

/// xoshiro256++ PRNG (Blackman & Vigna). Fast, high quality, deterministic.
/// Satisfies std::uniform_random_bit_generator.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; the full 256-bit state is derived with
  /// SplitMix64 so that nearby seeds yield unrelated streams.
  explicit constexpr rng(std::uint64_t seed = 0x9d2c5680f1a3c4e7ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire-style
  /// multiply-shift bounded generation (bias negligible for simulation n).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) {
    __extension__ using u128 = unsigned __int128;
    const u128 wide = static_cast<u128>((*this)()) * static_cast<u128>(n);
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Standard normal deviate via the polar (Marsaglia) Box-Muller variant:
  /// one (log, sqrt, div) evaluation and no trigonometry produces two
  /// independent deviates; the second is cached as a spare so every other
  /// call is a single load. Noise sampling is the hot path of every device
  /// model, and this halves its transcendental cost twice over.
  [[nodiscard]] double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);  // ~21% rejection; s == 0 guards log(0)
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Fill `out` with standard normal deviates, drawing exactly the same
  /// sequence as repeated `normal()` calls (the batch device kernels rely
  /// on this equivalence to stay bit-identical with the scalar paths).
  /// The bulk of the fill runs pairwise — each polar iteration stores both
  /// deviates of the pair directly, skipping the spare-cache store/branch
  /// that repeated normal() pays — which is observably identical because
  /// normal() hands out exactly those pairs in the same order.
  void fill_normal(std::span<double> out) {
    std::size_t i = 0;
    const std::size_t n = out.size();
    if (i < n && has_spare_) {
      has_spare_ = false;
      out[i++] = spare_;
    }
    for (; i + 1 < n; i += 2) {
      double u, v, s;
      do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
      } while (s >= 1.0 || s == 0.0);
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      out[i] = u * factor;
      out[i + 1] = v * factor;
    }
    if (i < n) out[i] = normal();  // odd tail: leaves the spare cached
  }

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Poisson deviate. For large means uses the Gaussian approximation,
  /// which is accurate to within the sampling error of the physical
  /// processes modelled (photon counts are typically >> 1e3).
  [[nodiscard]] std::uint64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean > 256.0) {
      const double v = std::round(normal(mean, std::sqrt(mean)));
      return v < 0.0 ? 0 : static_cast<std::uint64_t>(v);
    }
    // Knuth's method for small means.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }

  /// Exponential deviate with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) {
    return -std::log(1.0 - uniform()) / rate;
  }

  /// Fork a child stream that is statistically independent of this one.
  /// Used to give each device its own stream from one experiment seed.
  [[nodiscard]] rng fork() { return rng{(*this)()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;      ///< cached second deviate of the polar pair
  bool has_spare_ = false;  ///< whether `spare_` is valid
};

}  // namespace onfiber::phot
