// Tests for the digital baselines: device models, DNN training/inference,
// Aho-Corasick, stream cipher.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "digital/cipher.hpp"
#include "digital/device_model.hpp"
#include "digital/dnn.hpp"
#include "digital/pattern.hpp"
#include "photonics/rng.hpp"

namespace onfiber::digital {
namespace {

// ------------------------------------------------------------ device model

TEST(DeviceModel, PaperClockRates) {
  EXPECT_NEAR(make_tpu_model().clock_hz, 1.05e9, 1e6);   // §2.2
  EXPECT_NEAR(make_gpu_model().clock_hz, 1.41e9, 1e6);   // §2.2
}

TEST(DeviceModel, LatencyScalesWithMacs) {
  const device_model tpu = make_tpu_model();
  const double l1 = tpu.gemv_latency_s(1000);
  const double l2 = tpu.gemv_latency_s(2000);
  EXPECT_GT(l2, l1);
  EXPECT_NEAR(l2 - l1, 1000.0 / (tpu.clock_hz * tpu.macs_per_cycle), 1e-15);
}

TEST(DeviceModel, EnergyIncludesMemoryTraffic) {
  const device_model tpu = make_tpu_model();
  const double no_mem = tpu.gemv_energy_j(100, 0);
  const double with_mem = tpu.gemv_energy_j(100, 100);
  EXPECT_NEAR(no_mem, 100 * tpu.mac_energy_j, 1e-18);
  EXPECT_GT(with_mem, no_mem);
}

TEST(DeviceModel, EdgeCpuSlowerThanTpu) {
  EXPECT_GT(make_edge_cpu_model().gemv_latency_s(1'000'000),
            make_tpu_model().gemv_latency_s(1'000'000));
}

// --------------------------------------------------------------------- dnn

TEST(Dnn, DatasetDeterministicAndShaped) {
  const dataset a = make_synthetic_dataset(8, 3, 10, 0.05, 42);
  const dataset b = make_synthetic_dataset(8, 3, 10, 0.05, 42);
  ASSERT_EQ(a.samples.size(), 30u);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.labels, b.labels);
  for (const auto& s : a.samples) {
    ASSERT_EQ(s.size(), 8u);
    for (const double v : s) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Dnn, DatasetValidation) {
  EXPECT_THROW((void)make_synthetic_dataset(0, 3, 10, 0.1, 1),
               std::invalid_argument);
}

TEST(Dnn, TrainingSeparatesClusters) {
  const dataset data = make_synthetic_dataset(16, 4, 25, 0.08, 7);
  const dnn_model model = train_mlp(data, {12}, 30, 0.05, 11);
  EXPECT_GE(reference_accuracy(model, data), 0.95);
}

TEST(Dnn, TrainingDeterministic) {
  const dataset data = make_synthetic_dataset(8, 2, 20, 0.1, 3);
  const dnn_model m1 = train_mlp(data, {6}, 10, 0.05, 5);
  const dnn_model m2 = train_mlp(data, {6}, 10, 0.05, 5);
  EXPECT_EQ(m1.layers[0].weights.data, m2.layers[0].weights.data);
}

TEST(Dnn, WeightsStayInUnitRange) {
  const dataset data = make_synthetic_dataset(8, 2, 20, 0.1, 3);
  const dnn_model m = train_mlp(data, {6}, 20, 0.3, 5);
  for (const auto& layer : m.layers) {
    for (const double w : layer.weights.data) {
      EXPECT_GE(w, -1.0);
      EXPECT_LE(w, 1.0);
    }
  }
}

TEST(Dnn, PhotonicAwareTrainingWorks) {
  const dataset data = make_synthetic_dataset(16, 4, 25, 0.08, 7);
  const dnn_model model = train_mlp(data, {12}, 40, 0.08, 11,
                                    activation_kind::photonic_sin2, 2.0);
  EXPECT_GE(reference_accuracy(model, data), 0.95);
  EXPECT_EQ(model.activation, activation_kind::photonic_sin2);
}

TEST(Dnn, ActivationFunctions) {
  EXPECT_DOUBLE_EQ(apply_activation(activation_kind::relu, -1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_activation(activation_kind::relu, 3.0, 2.0), 3.0);
  // photonic_sin2 at full scale: u=1, h=1*sin^2(pi/2)=1.
  EXPECT_NEAR(apply_activation(activation_kind::photonic_sin2, 2.0, 2.0),
              1.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      apply_activation(activation_kind::photonic_sin2, -0.5, 2.0), 0.0);
  // Monotone on [0, scale].
  double prev = -1.0;
  for (double z = 0.0; z <= 2.0; z += 0.05) {
    const double h = apply_activation(activation_kind::photonic_sin2, z, 2.0);
    EXPECT_GE(h, prev);
    prev = h;
  }
}

TEST(Dnn, ActivationDerivativeMatchesFiniteDifference) {
  for (const auto kind :
       {activation_kind::relu, activation_kind::photonic_sin2}) {
    for (const double z : {0.2, 0.7, 1.3, 1.9}) {
      const double eps = 1e-6;
      const double numeric = (apply_activation(kind, z + eps, 2.0) -
                              apply_activation(kind, z - eps, 2.0)) /
                             (2.0 * eps);
      EXPECT_NEAR(activation_derivative(kind, z, 2.0), numeric, 1e-5)
          << "z=" << z;
    }
  }
}

TEST(Dnn, Int8InferenceCloseToFloat) {
  const dataset data = make_synthetic_dataset(16, 4, 25, 0.08, 7);
  const dnn_model model = train_mlp(data, {12}, 30, 0.05, 11);
  std::size_t agree = 0;
  const device_model tpu = make_tpu_model();
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    const auto fl = infer_reference(model, data.samples[i]);
    const auto q = infer_int8(model, data.samples[i], tpu);
    if (argmax(fl) == argmax(q.logits)) ++agree;
    EXPECT_GT(q.latency_s, 0.0);
    EXPECT_GT(q.energy_j, 0.0);
  }
  EXPECT_GE(static_cast<double>(agree) /
                static_cast<double>(data.samples.size()),
            0.9);
}

TEST(Dnn, MacCount) {
  dnn_model m;
  dense_layer l1;
  l1.weights = phot::matrix(12, 16);
  l1.bias.assign(12, 0.0);
  dense_layer l2;
  l2.weights = phot::matrix(4, 12);
  l2.bias.assign(4, 0.0);
  m.layers = {l1, l2};
  EXPECT_EQ(m.mac_count(), 12u * 16u + 4u * 12u);
  EXPECT_EQ(m.output_dim(), 4u);
}

TEST(Dnn, ArgmaxEdgeCases) {
  const std::vector<double> v{1.0, 3.0, 3.0, 2.0};
  EXPECT_EQ(argmax(v), 1u);  // first of ties
  EXPECT_THROW((void)argmax(std::vector<double>{}), std::invalid_argument);
}

// ----------------------------------------------------------------- pattern

TEST(AhoCorasick, FindsAllOverlapping) {
  const std::vector<std::vector<std::uint8_t>> patterns{
      {'a', 'b'}, {'b', 'c'}, {'a', 'b', 'c'}};
  const aho_corasick ac(patterns);
  const std::vector<std::uint8_t> text{'x', 'a', 'b', 'c', 'a', 'b'};
  const auto hits = ac.find_all(text);
  // "ab"@3, "abc"@4, "bc"@4, "ab"@6 (end offsets).
  EXPECT_EQ(hits.size(), 4u);
}

TEST(AhoCorasick, RejectsEmptyPattern) {
  std::vector<std::vector<std::uint8_t>> patterns;
  patterns.emplace_back();  // one empty pattern
  EXPECT_THROW(aho_corasick(std::move(patterns)), std::invalid_argument);
}

TEST(AhoCorasick, MatchesNaiveReferenceFuzz) {
  phot::rng g(31);
  for (int trial = 0; trial < 20; ++trial) {
    // Random patterns over a tiny alphabet to force many hits.
    std::vector<std::vector<std::uint8_t>> patterns;
    const std::size_t pattern_count = 1 + g.below(4);
    for (std::size_t p = 0; p < pattern_count; ++p) {
      std::vector<std::uint8_t> pat(1 + g.below(4));
      for (auto& b : pat) b = static_cast<std::uint8_t>(g.below(3));
      patterns.push_back(std::move(pat));
    }
    std::vector<std::uint8_t> text(200);
    for (auto& b : text) b = static_cast<std::uint8_t>(g.below(3));

    const aho_corasick ac(patterns);
    auto got = ac.find_all(text);
    auto expected = naive_scan(text, patterns);
    const auto key = [](const pattern_hit& h) {
      return std::pair(h.end_offset, h.pattern_index);
    };
    std::sort(got.begin(), got.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    std::sort(expected.begin(), expected.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

// ------------------------------------------------------------------ cipher

std::vector<std::uint8_t> test_key() {
  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

TEST(Cipher, RoundTrip) {
  const auto key = test_key();
  std::vector<std::uint8_t> data{'h', 'e', 'l', 'l', 'o', '!', '!', '!'};
  const auto original = data;
  stream_cipher enc(key, 7);
  enc.apply(data);
  EXPECT_NE(data, original);
  stream_cipher dec(key, 7);
  dec.apply(data);
  EXPECT_EQ(data, original);
}

TEST(Cipher, DifferentNoncesDiffer) {
  const auto key = test_key();
  stream_cipher a(key, 1), b(key, 2);
  EXPECT_NE(a.keystream(64), b.keystream(64));
}

TEST(Cipher, KeystreamDeterministic) {
  const auto key = test_key();
  stream_cipher a(key, 9), b(key, 9);
  EXPECT_EQ(a.keystream(100), b.keystream(100));
}

TEST(Cipher, KeystreamLooksUniform) {
  const auto key = test_key();
  stream_cipher c(key, 11);
  const auto ks = c.keystream(1 << 16);
  std::map<std::uint8_t, int> histogram;
  for (const auto b : ks) ++histogram[b];
  // Every byte value appears, roughly uniformly.
  EXPECT_EQ(histogram.size(), 256u);
  for (const auto& [byte, count] : histogram) {
    EXPECT_NEAR(static_cast<double>(count), 256.0, 100.0);
  }
}

TEST(Cipher, RejectsBadKey) {
  const std::vector<std::uint8_t> short_key(16, 0);
  EXPECT_THROW(stream_cipher(short_key, 0), std::invalid_argument);
}

}  // namespace
}  // namespace onfiber::digital
