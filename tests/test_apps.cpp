// Tests for the seven Table-1 use cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apps/encryption.hpp"
#include "apps/intrusion_detection.hpp"
#include "apps/ip_routing.hpp"
#include "apps/load_balancing.hpp"
#include "apps/mimo.hpp"
#include "apps/ml_inference.hpp"
#include "apps/video_encoding.hpp"

namespace onfiber::apps {
namespace {

// ------------------------------------------------------------ ML inference

TEST(MlApp, PhotonicAccuracyNearReference) {
  const digital::dataset data =
      digital::make_synthetic_dataset(16, 4, 20, 0.08, 7);
  const digital::dnn_model model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  const double ref = digital::reference_accuracy(model, data);
  core::photonic_engine engine({}, 99);
  engine.configure_dnn(to_photonic_task(model));
  const photonic_eval eval = evaluate_photonic(engine, model, data);
  EXPECT_GE(ref, 0.95);
  EXPECT_GE(eval.accuracy, ref - 0.1);
  EXPECT_GT(eval.mean_compute_latency_s, 0.0);
}

TEST(MlApp, NaiveReluMappingDegrades) {
  // The ablation: a ReLU-trained model deployed on the sin^2 engine loses
  // accuracy vs its photonic-aware twin.
  const digital::dataset data =
      digital::make_synthetic_dataset(16, 4, 20, 0.08, 7);
  const digital::dnn_model relu_model =
      digital::train_mlp(data, {12}, 40, 0.08, 11);
  const digital::dnn_model aware_model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  core::photonic_engine e1({}, 99), e2({}, 99);
  e1.configure_dnn(to_photonic_task(relu_model));
  e2.configure_dnn(to_photonic_task(aware_model));
  const double naive = evaluate_photonic(e1, relu_model, data).accuracy;
  const double aware = evaluate_photonic(e2, aware_model, data).accuracy;
  EXPECT_GT(aware, naive + 0.1);
}

TEST(MlApp, DeploymentLatencyOrdering) {
  const net::topology topo = net::make_figure1_topology();
  const digital::dataset data =
      digital::make_synthetic_dataset(16, 4, 4, 0.08, 7);
  const digital::dnn_model model = digital::train_mlp(data, {12}, 5, 0.05, 1);
  // Inference at src=A(0), dst=D(3); cloud at B(1) is a detour; the
  // on-fiber site C(2) is on a src->dst path.
  const deployment_latency lat =
      compare_deployments(topo, 0, 3, 1, 2, model, /*photonic_s=*/1e-6);
  // On-fiber beats cloud: no detour beyond the path, tiny compute time.
  EXPECT_LT(lat.on_fiber_s, lat.cloud_s);
  // The legs come from spf_engine and must equal the seed Dijkstra's
  // path delays bit for bit.
  const auto leg = [&topo](net::node_id a, net::node_id b) {
    return topo.path_delay_s(topo.shortest_path(a, b));
  };
  EXPECT_EQ(lat.on_fiber_s, leg(0, 2) + 1e-6 + leg(2, 3));
  EXPECT_GT(lat.cloud_s, 0.0);
  EXPECT_GT(lat.edge_s, 0.0);
}

TEST(MlApp, RejectsUnconfiguredEngine) {
  const digital::dataset data =
      digital::make_synthetic_dataset(8, 2, 4, 0.1, 3);
  const digital::dnn_model model = digital::train_mlp(data, {4}, 2, 0.05, 1);
  core::photonic_engine engine({}, 1);
  EXPECT_THROW((void)evaluate_photonic(engine, model, data),
               std::invalid_argument);
}

// ---------------------------------------------------------- video encoding

TEST(VideoApp, DctMatrixOrthonormal) {
  const phot::matrix d = dct8_matrix();
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 8; ++k) dot += d.at(r, k) * d.at(c, k);
      EXPECT_NEAR(dot, r == c ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(VideoApp, DigitalEncodeDecodeHighPsnr) {
  const frame f = make_synthetic_frame(32, 32, 5);
  video_config cfg;
  cfg.quant_step = 1.0 / 256.0;
  const encode_result enc = encode_digital(f, cfg);
  const frame back = decode(enc, 32, 32, cfg);
  EXPECT_GT(psnr_db(f, back), 40.0);
}

TEST(VideoApp, PhotonicEncodeReasonablePsnr) {
  const frame f = make_synthetic_frame(16, 16, 6);
  video_config cfg;
  cfg.quant_step = 1.0 / 64.0;
  phot::vector_matrix_engine engine({}, 42);
  const encode_result photonic = encode_photonic(f, cfg, engine);
  const frame back = decode(photonic, 16, 16, cfg);
  // Analog noise costs quality but the frame must remain recognizable.
  EXPECT_GT(psnr_db(f, back), 20.0);
  EXPECT_GT(photonic.latency_s, 0.0);
  EXPECT_GT(photonic.optical_symbols, 0u);
}

TEST(VideoApp, PhotonicCoefficientsTrackDigital) {
  const frame f = make_synthetic_frame(16, 16, 7);
  video_config cfg;
  phot::vector_matrix_engine engine({}, 43);
  const encode_result dig = encode_digital(f, cfg);
  const encode_result pho = encode_photonic(f, cfg, engine);
  ASSERT_EQ(dig.coefficients.size(), pho.coefficients.size());
  double err = 0.0;
  for (std::size_t i = 0; i < dig.coefficients.size(); ++i) {
    err += std::abs(dig.coefficients[i] - pho.coefficients[i]);
  }
  err /= static_cast<double>(dig.coefficients.size());
  EXPECT_LT(err, 0.15);  // mean absolute coefficient error
}

TEST(VideoApp, DimensionValidation) {
  const frame f = make_synthetic_frame(10, 16, 8);  // width not multiple of 8
  EXPECT_THROW((void)encode_digital(f, {}), std::invalid_argument);
  const encode_result enc;
  EXPECT_THROW((void)decode(enc, 16, 16, {}), std::invalid_argument);
}

TEST(VideoApp, PsnrIdenticalFramesIsCeiling) {
  const frame f = make_synthetic_frame(16, 16, 9);
  EXPECT_DOUBLE_EQ(psnr_db(f, f), 99.0);
}

// -------------------------------------------------------------- IP routing

TEST(IpRouteApp, PrefixPatternShape) {
  const auto pattern = prefix_pattern(net::prefix(net::ipv4(10, 0, 0, 0), 8));
  ASSERT_EQ(pattern.size(), 32u);
  int cared = 0;
  for (const auto t : pattern) {
    if (t != phot::tbit::wildcard) ++cared;
  }
  EXPECT_EQ(cared, 8);
  // 10 = 00001010.
  EXPECT_EQ(pattern[4], phot::tbit::one);
  EXPECT_EQ(pattern[6], phot::tbit::one);
  EXPECT_EQ(pattern[7], phot::tbit::zero);
}

TEST(IpRouteApp, LongestPrefixWinsPhotonic) {
  std::vector<fib_entry> entries{
      {net::prefix(net::ipv4(10, 0, 0, 0), 8), 1},
      {net::prefix(net::ipv4(10, 1, 0, 0), 16), 2},
      {net::prefix(net::ipv4(10, 1, 2, 0), 24), 3},
  };
  photonic_fib fib(entries, {}, 17);
  EXPECT_EQ(fib.lookup(net::ipv4(10, 1, 2, 9)).value(), 3u);
  EXPECT_EQ(fib.lookup(net::ipv4(10, 1, 9, 9)).value(), 2u);
  EXPECT_EQ(fib.lookup(net::ipv4(10, 9, 9, 9)).value(), 1u);
  EXPECT_FALSE(fib.lookup(net::ipv4(9, 9, 9, 9)).has_value());
}

TEST(IpRouteApp, DefaultRouteCatchesAll) {
  std::vector<fib_entry> entries{{net::prefix(net::ipv4(0), 0), 42}};
  photonic_fib fib(entries, {}, 18);
  EXPECT_EQ(fib.lookup(net::ipv4(1, 2, 3, 4)).value(), 42u);
  EXPECT_EQ(fib.evaluations(), 0u);  // no optical evaluation needed
}

TEST(IpRouteApp, MatchesTrieOnSyntheticFib) {
  const auto entries = make_synthetic_fib(24, 99, /*with_default=*/true);
  photonic_fib fib(entries, {}, 19);
  const auto trie = make_trie_fib(entries);
  phot::rng g(123);
  int disagreements = 0;
  constexpr int lookups = 60;
  for (int i = 0; i < lookups; ++i) {
    // Half the probes target known prefixes to exercise real matches.
    net::ipv4 addr;
    if (i % 2 == 0) {
      const auto& e = entries[g.below(entries.size())];
      addr = net::ipv4(e.dst.network.value |
                       (static_cast<std::uint32_t>(g()) & ~e.dst.mask()));
    } else {
      addr = net::ipv4(static_cast<std::uint32_t>(g()));
    }
    const auto photonic = fib.lookup(addr);
    const auto digital = trie.lookup(addr);
    if (photonic != digital) ++disagreements;
  }
  EXPECT_EQ(disagreements, 0);
  EXPECT_GT(fib.evaluations(), 0u);
  EXPECT_GT(fib.analog_time_s(), 0.0);
}

// ------------------------------------------------------ intrusion detection

std::vector<std::vector<std::uint8_t>> test_signatures() {
  return {{'A', 'T', 'T', 'A', 'C', 'K', '0', '1'},
          {'m', 'a', 'l', 'w', 'a', 'r', 'e'}};
}

TEST(IdsApp, PerfectRecallPrecisionOnWorkload) {
  const auto sigs = test_signatures();
  const ids_workload w = make_ids_workload(sigs, 10, 48, 0.6, 5);
  photonic_ids photonic(sigs, {}, 21);
  const digital::aho_corasick ac(sigs);

  std::vector<std::vector<detection>> photonic_found, digital_found;
  for (const auto& payload : w.payloads) {
    photonic_found.push_back(photonic.scan(payload));
    digital_found.push_back(digital_ids_scan(ac, payload, sigs));
  }
  const detection_quality pq = score_detections(w.truth, photonic_found);
  const detection_quality dq = score_detections(w.truth, digital_found);
  EXPECT_DOUBLE_EQ(dq.recall, 1.0);
  EXPECT_DOUBLE_EQ(dq.precision, 1.0);
  EXPECT_DOUBLE_EQ(pq.recall, 1.0);
  EXPECT_DOUBLE_EQ(pq.precision, 1.0);
}

TEST(IdsApp, CleanPayloadsNoDetections) {
  const auto sigs = test_signatures();
  const ids_workload w = make_ids_workload(sigs, 6, 40, 0.0, 6);
  photonic_ids photonic(sigs, {}, 22);
  for (std::size_t i = 0; i < w.payloads.size(); ++i) {
    EXPECT_EQ(photonic.scan(w.payloads[i]).size(), w.truth[i].size());
  }
}

TEST(IdsApp, CountsAnalogWork) {
  const auto sigs = test_signatures();
  photonic_ids photonic(sigs, {}, 23);
  std::vector<std::uint8_t> payload(32, 'x');
  (void)photonic.scan(payload);
  // (32-8+1) + (32-7+1) windows.
  EXPECT_EQ(photonic.evaluations(), 25u + 26u);
}

TEST(IdsApp, Validation) {
  EXPECT_THROW(photonic_ids({}, {}, 1), std::invalid_argument);
  EXPECT_THROW(photonic_ids({{}}, {}, 1), std::invalid_argument);
  EXPECT_THROW((void)make_ids_workload({}, 1, 10, 0.5, 1),
               std::invalid_argument);
}

TEST(IdsApp, PlantSignatureBounds) {
  std::vector<std::uint8_t> payload(16, 0);
  const std::vector<std::uint8_t> sig{1, 2, 3, 4};
  plant_signature(payload, sig, 12);
  EXPECT_EQ(payload[12], 1);
  EXPECT_EQ(payload[15], 4);
  EXPECT_THROW(plant_signature(payload, sig, 13), std::invalid_argument);
  EXPECT_THROW(plant_signature(payload, sig, 17), std::invalid_argument);
  // offset + signature.size() wraps past SIZE_MAX to a small sum; the
  // check must still reject it rather than write before the payload.
  const std::vector<std::uint8_t> before = payload;
  EXPECT_THROW(plant_signature(payload, sig, SIZE_MAX), std::invalid_argument);
  EXPECT_THROW(plant_signature(payload, sig, SIZE_MAX - 2),
               std::invalid_argument);
  EXPECT_EQ(payload, before);
}

// ---------------------------------------------------------------- encryption

TEST(CryptoApp, DecryptRecoversPlaintext) {
  std::vector<std::uint8_t> key(32, 7);
  const std::vector<std::uint8_t> plain{'s', 'e', 'c', 'r', 'e', 't', '!', '?'};
  photonic_crypto crypto({}, 31);
  digital::stream_cipher enc_key(key, 5), dec_key(key, 5);
  const phot::waveform wave = crypto.encrypt(plain, enc_key);
  EXPECT_EQ(wave.size(), plain.size() * 8 + 1);  // pilot + bits
  const auto recovered = crypto.decrypt(wave, plain.size(), dec_key);
  EXPECT_EQ(recovered, plain);
}

TEST(CryptoApp, EavesdropperSeesNoise) {
  std::vector<std::uint8_t> key(32, 9);
  std::vector<std::uint8_t> plain(64);
  apps::fill_random_bytes(plain, 77);
  photonic_crypto crypto({}, 32);
  digital::stream_cipher enc_key(key, 6);
  const phot::waveform wave = crypto.encrypt(plain, enc_key);
  const auto spied = crypto.eavesdrop(wave, plain.size());
  // Without the key the mask looks like a one-time pad: ~50% bit errors.
  const double ber = bit_error_fraction(plain, spied);
  EXPECT_GT(ber, 0.35);
  EXPECT_LT(ber, 0.65);
}

TEST(CryptoApp, WrongKeyFailsToDecrypt) {
  std::vector<std::uint8_t> key(32, 1), wrong(32, 2);
  std::vector<std::uint8_t> plain(32);
  apps::fill_random_bytes(plain, 88);
  photonic_crypto crypto({}, 33);
  digital::stream_cipher enc_key(key, 7), bad_key(wrong, 7);
  const phot::waveform wave = crypto.encrypt(plain, enc_key);
  const auto garbled = crypto.decrypt(wave, plain.size(), bad_key);
  EXPECT_GT(bit_error_fraction(plain, garbled), 0.3);
}

TEST(CryptoApp, StreamLatency) {
  photonic_crypto crypto({}, 34);
  EXPECT_NEAR(crypto.stream_latency_s(100), 801.0 / 10e9, 1e-15);
}

TEST(CryptoApp, BitErrorFractionValidation) {
  const std::vector<std::uint8_t> a(4, 0), b(5, 0);
  EXPECT_THROW((void)bit_error_fraction(a, b), std::invalid_argument);
  EXPECT_DOUBLE_EQ(bit_error_fraction(a, a), 0.0);
  const std::vector<std::uint8_t> c{0xff, 0xff, 0xff, 0xff};
  EXPECT_DOUBLE_EQ(bit_error_fraction(a, c), 1.0);
}

// ------------------------------------------------------------ load balancing

TEST(LbApp, ComparatorCorrectWhenFarApart) {
  photonic_comparator cmp({}, 41);
  EXPECT_TRUE(cmp.less(0.1, 0.9));
  EXPECT_FALSE(cmp.less(0.9, 0.1));
  EXPECT_EQ(cmp.comparisons(), 2u);
}

TEST(LbApp, ComparatorNoisyWhenClose) {
  photonic_comparator cmp({}, 42);
  int wrong = 0;
  constexpr int trials = 400;
  for (int i = 0; i < trials; ++i) {
    if (!cmp.less(0.5000, 0.5001)) ++wrong;
  }
  // Too close to call reliably in analog: decisions split.
  EXPECT_GT(wrong, 10);
  EXPECT_LT(wrong, trials - 10);
}

TEST(LbApp, ComparatorArgmin) {
  photonic_comparator cmp({}, 43);
  const std::vector<double> loads{0.8, 0.1, 0.9, 0.5};
  EXPECT_EQ(cmp.argmin(loads), 1u);
  EXPECT_THROW((void)cmp.argmin(std::vector<double>{}),
               std::invalid_argument);
}

TEST(LbApp, FlowletPoliciesBeatEcmp) {
  const auto flows = make_lb_flows(400, 2000.0, 51);
  const lb_result ecmp =
      run_load_balancer(flows, 4, lb_policy::ecmp_hash, 0.5e-3, nullptr, 1);
  const lb_result digital = run_load_balancer(
      flows, 4, lb_policy::flowlet_digital, 0.5e-3, nullptr, 1);
  photonic_comparator cmp({}, 52);
  const lb_result photonic = run_load_balancer(
      flows, 4, lb_policy::flowlet_photonic, 0.5e-3, &cmp, 1);

  EXPECT_GT(digital.jain_fairness, ecmp.jain_fairness);
  EXPECT_GT(photonic.jain_fairness, ecmp.jain_fairness);
  // Photonic tracks digital closely despite comparator noise.
  EXPECT_GT(photonic.jain_fairness, digital.jain_fairness - 0.05);
  EXPECT_GT(digital.jain_fairness, 0.9);
}

TEST(LbApp, Validation) {
  const auto flows = make_lb_flows(5, 100.0, 1);
  EXPECT_THROW((void)run_load_balancer(flows, 0, lb_policy::ecmp_hash, 1e-3,
                                       nullptr, 1),
               std::invalid_argument);
  EXPECT_THROW((void)run_load_balancer(flows, 2, lb_policy::flowlet_photonic,
                                       1e-3, nullptr, 1),
               std::invalid_argument);
}

TEST(LbApp, FlowsDeterministic) {
  const auto a = make_lb_flows(20, 100.0, 9);
  const auto b = make_lb_flows(20, 100.0, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_DOUBLE_EQ(a[i].size_bytes, b[i].size_bytes);
  }
}

// -------------------------------------------------------------------- MIMO

TEST(MimoApp, ZeroForcingInvertsChannel) {
  const cmatrix h = make_rayleigh_channel(8, 4, 61);
  const cmatrix w = zero_forcing_matrix(h);
  // W H should be ~identity (K x K).
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t m = 0; m < 8; ++m) acc += w[r][m] * h[m][c];
      EXPECT_NEAR(acc.real(), r == c ? 1.0 : 0.0, 1e-9);
      EXPECT_NEAR(acc.imag(), 0.0, 1e-9);
    }
  }
}

TEST(MimoApp, QpskRoundTrip) {
  for (std::uint8_t bits = 0; bits < 4; ++bits) {
    EXPECT_EQ(qpsk_slice(qpsk_modulate(bits)), bits);
  }
}

TEST(MimoApp, StackedRealEquivalentToComplex) {
  const cmatrix h = make_rayleigh_channel(6, 3, 62);
  const cmatrix w = zero_forcing_matrix(h);
  const stacked_real sw = stack_real(w);
  // Random complex vector through both forms.
  phot::rng g(63);
  cvector y(6);
  for (auto& v : y) v = {g.uniform(-1.0, 1.0), g.uniform(-1.0, 1.0)};
  // Complex reference.
  cvector ref(3, {0.0, 0.0});
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 6; ++c) ref[r] += w[r][c] * y[c];
  }
  // Stacked real.
  std::vector<double> yr(12);
  for (std::size_t i = 0; i < 6; ++i) {
    yr[i] = y[i].real();
    yr[6 + i] = y[i].imag();
  }
  const auto zr = phot::gemv_reference(sw.w, yr);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(zr[r] * sw.scale, ref[r].real(), 1e-9);
    EXPECT_NEAR(zr[3 + r] * sw.scale, ref[r].imag(), 1e-9);
  }
}

TEST(MimoApp, HighSnrLowBer) {
  const cmatrix h = make_rayleigh_channel(8, 4, 64);
  phot::vector_matrix_engine engine({}, 65);
  const mimo_trial_result r = run_mimo_trial(h, 30.0, 50, engine, 66);
  EXPECT_LT(r.ber_digital, 0.01);
  EXPECT_LT(r.ber_photonic, 0.06);  // analog noise adds a small penalty
  EXPECT_GT(r.photonic_latency_s, 0.0);
}

TEST(MimoApp, BerDegradesWithLowSnr) {
  const cmatrix h = make_rayleigh_channel(8, 4, 67);
  phot::vector_matrix_engine e1({}, 68), e2({}, 68);
  const mimo_trial_result high = run_mimo_trial(h, 25.0, 60, e1, 69);
  const mimo_trial_result low = run_mimo_trial(h, 0.0, 60, e2, 69);
  EXPECT_GT(low.ber_digital, high.ber_digital);
  EXPECT_GT(low.evm_digital, high.evm_digital);
}

TEST(MimoApp, Validation) {
  EXPECT_THROW((void)make_rayleigh_channel(2, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)make_rayleigh_channel(0, 0, 1), std::invalid_argument);
}

TEST(MimoApp, MmseReducesToZfAtZeroNoise) {
  const cmatrix h = make_rayleigh_channel(6, 3, 71);
  const cmatrix zf = zero_forcing_matrix(h);
  const cmatrix mmse = mmse_matrix(h, 0.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(std::abs(zf[r][c] - mmse[r][c]), 0.0, 1e-9);
    }
  }
  EXPECT_THROW((void)mmse_matrix(h, -1.0), std::invalid_argument);
}

TEST(MimoApp, MmseBeatsZfAtLowSnr) {
  // At low SNR, MMSE's regularization suppresses ZF's noise
  // enhancement: its EVM must be no worse (digital path).
  const cmatrix h = make_rayleigh_channel(8, 6, 73);  // near-square: ZF hurts
  const double snr_db = 0.0;
  const double noise_var = std::pow(10.0, -snr_db / 10.0);
  phot::vector_matrix_engine e1({}, 74), e2({}, 74);
  const auto zf = run_mimo_trial_with(h, zero_forcing_matrix(h), snr_db, 80,
                                      e1, 75);
  const auto mmse = run_mimo_trial_with(h, mmse_matrix(h, noise_var), snr_db,
                                        80, e2, 75);
  EXPECT_LE(mmse.evm_digital, zf.evm_digital + 1e-9);
  EXPECT_LE(mmse.ber_digital, zf.ber_digital + 0.02);
}

TEST(MimoApp, TrialWithRejectsBadDetectorShape) {
  const cmatrix h = make_rayleigh_channel(6, 3, 77);
  const cmatrix w = zero_forcing_matrix(make_rayleigh_channel(8, 4, 78));
  phot::vector_matrix_engine engine({}, 79);
  EXPECT_THROW((void)run_mimo_trial_with(h, w, 10.0, 4, engine, 80),
               std::invalid_argument);
}

}  // namespace
}  // namespace onfiber::apps
