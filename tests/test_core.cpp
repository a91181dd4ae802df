// Tests for the core library: commodity transponder (Fig. 3), photonic
// engine + compute packets (Fig. 4), and the on-fiber runtime (Fig. 1).
#include <gtest/gtest.h>

#include <numeric>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "core/transponder.hpp"
#include "photonics/fiber.hpp"
#include "photonics/rng.hpp"

namespace onfiber::core {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  phot::rng g(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(g.below(256));
  return out;
}

// -------------------------------------------------------------- transponder

TEST(Transponder, Pam4RoundTripClean) {
  commodity_transponder t({}, 1);
  const auto bytes = random_bytes(256, 11);
  const auto wave = t.transmit(bytes);
  const receive_report r = t.receive(wave, bytes);
  EXPECT_EQ(r.bytes, bytes);
  EXPECT_EQ(r.symbol_errors, 0u);
}

TEST(Transponder, Pam2RoundTripClean) {
  transponder_config cfg;
  cfg.coding = line_coding::pam2;
  commodity_transponder t(cfg, 2);
  const auto bytes = random_bytes(128, 12);
  const receive_report r = t.receive(t.transmit(bytes), bytes);
  EXPECT_EQ(r.bytes, bytes);
}

TEST(Transponder, SymbolsForBytes) {
  transponder_config cfg;
  cfg.coding = line_coding::pam4;
  commodity_transponder t4(cfg, 3);
  EXPECT_EQ(t4.symbols_for_bytes(1), 4u);   // 8 bits / 2
  EXPECT_EQ(t4.symbols_for_bytes(100), 400u);
  cfg.coding = line_coding::pam2;
  commodity_transponder t2(cfg, 4);
  EXPECT_EQ(t2.symbols_for_bytes(1), 8u);
}

TEST(Transponder, SurvivesModerateFiberLoss) {
  commodity_transponder t({}, 5);
  const auto bytes = random_bytes(64, 13);
  auto wave = t.transmit(bytes);
  phot::fiber_config fc;
  fc.length_km = 40.0;  // 8 dB loss
  phot::fiber_span span(fc, phot::rng{6});
  const auto attenuated = span.propagate(wave);
  // PAM-4 slicer references full power; with 8 dB loss uncorrected the
  // link breaks — commodity links run amplified. Verify the amplified
  // span keeps the link clean instead.
  phot::fiber_config amplified = fc;
  amplified.amplified = true;
  amplified.symbol_rate_hz = t.config().symbol_rate_hz;
  phot::fiber_span good_span(amplified, phot::rng{7});
  const receive_report r = t.receive(good_span.propagate(wave), bytes);
  EXPECT_EQ(r.bytes, bytes);
  (void)attenuated;
}

TEST(Transponder, ErrorsAppearAtHighLoss) {
  commodity_transponder t({}, 8);
  const auto bytes = random_bytes(64, 14);
  auto wave = t.transmit(bytes);
  for (auto& e : wave) e *= phot::field_loss_scale(12.0);  // uncompensated
  const receive_report r = t.receive(wave, bytes);
  EXPECT_GT(r.symbol_errors, 0u);
}

TEST(Transponder, LatencyModel) {
  transponder_config cfg;
  cfg.symbol_rate_hz = 50e9;
  cfg.dsp_latency_s = 100e-9;
  commodity_transponder t(cfg, 9);
  const auto bytes = random_bytes(100, 15);
  const auto wave = t.transmit(bytes);
  const receive_report r = t.receive(wave);
  EXPECT_NEAR(r.latency_s, 400.0 / 50e9 + 100e-9, 1e-12);
}

TEST(Transponder, ConversionsCharged) {
  phot::energy_ledger ledger;
  commodity_transponder t({}, 10, &ledger);
  const auto bytes = random_bytes(10, 16);  // 40 PAM-4 symbols
  const auto wave = t.transmit(bytes);
  EXPECT_EQ(ledger.ops("dac"), 40u);
  (void)t.receive(wave);
  EXPECT_EQ(ledger.ops("adc"), 40u);
}

// ------------------------------------------------------------ photonic engine

engine_config quiet_engine_config() { return {}; }

TEST(Engine, GemvTaskComputes) {
  photonic_engine e(quiet_engine_config(), 1);
  gemv_task task;
  task.weights = phot::matrix(2, 4);
  // Row 0 = identity-ish selector, row 1 = negations.
  task.weights.at(0, 0) = 1.0;
  task.weights.at(0, 1) = 0.5;
  task.weights.at(1, 2) = -1.0;
  task.weights.at(1, 3) = 0.25;
  e.configure_gemv(task);

  const std::vector<double> x{0.8, -0.4, 0.6, 0.2};
  net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 1),
                                      net::ipv4(10, 1, 0, 1), x, 2);
  const engine_report rep = e.process(pkt);
  ASSERT_TRUE(rep.computed);
  const auto result = read_gemv_result(pkt);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_NEAR((*result)[0], 0.8 * 1.0 - 0.4 * 0.5, 0.15);
  EXPECT_NEAR((*result)[1], -0.6 + 0.05, 0.15);
}

TEST(Engine, GemvShapeMismatchNotComputed) {
  photonic_engine e(quiet_engine_config(), 2);
  gemv_task task;
  task.weights = phot::matrix(2, 8);
  e.configure_gemv(task);
  const std::vector<double> x(4, 0.5);  // wrong length
  net::packet pkt = make_gemv_request(net::ipv4(1, 0, 0, 1),
                                      net::ipv4(2, 0, 0, 1), x, 2);
  EXPECT_FALSE(e.process(pkt).computed);
  EXPECT_FALSE(read_gemv_result(pkt).has_value());
}

TEST(Engine, MatchTaskPriorityOrder) {
  photonic_engine e(quiet_engine_config(), 3);
  const std::vector<std::uint8_t> word{0xca, 0xfe};
  const auto word_bits = phot::bytes_to_bits(word);
  match_task task;
  task.patterns.push_back(phot::to_ternary(word_bits));  // index 0
  task.patterns.push_back(std::vector<phot::tbit>(16, phot::tbit::wildcard));
  task.patterns[1][0] = phot::tbit::one;  // also matches 0xca...
  e.configure_match(task);

  net::packet pkt = make_match_request(net::ipv4(1, 0, 0, 1),
                                       net::ipv4(2, 0, 0, 1), word);
  const engine_report rep = e.process(pkt);
  ASSERT_TRUE(rep.computed);
  EXPECT_EQ(read_match_result(pkt).value(), 0);  // first pattern wins
}

TEST(Engine, MatchNoHit) {
  photonic_engine e(quiet_engine_config(), 4);
  match_task task;
  task.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(std::vector<std::uint8_t>{0xff})));
  e.configure_match(task);
  const std::vector<std::uint8_t> word{0x00};
  net::packet pkt = make_match_request(net::ipv4(1, 0, 0, 1),
                                       net::ipv4(2, 0, 0, 1), word);
  ASSERT_TRUE(e.process(pkt).computed);
  EXPECT_EQ(read_match_result(pkt).value(), match_no_hit);
}

TEST(Engine, NonlinearAlwaysSupported) {
  photonic_engine e(quiet_engine_config(), 5);
  EXPECT_TRUE(e.supports(proto::primitive_id::p3_nonlinear));
  const std::vector<double> x{0.0, 0.25, 0.5, 1.0};
  net::packet pkt = make_nonlinear_request(net::ipv4(1, 0, 0, 1),
                                           net::ipv4(2, 0, 0, 1), x);
  ASSERT_TRUE(e.process(pkt).computed);
  const auto y = read_nonlinear_result(pkt);
  ASSERT_TRUE(y.has_value());
  ASSERT_EQ(y->size(), 4u);
  // Monotone nondecreasing (allowing converter noise at the low end).
  EXPECT_LE((*y)[0], (*y)[3]);
  EXPECT_GT((*y)[3], 0.5);  // full-scale passes most power
  EXPECT_LT((*y)[1], 0.2);  // knee suppresses small inputs
}

TEST(Engine, UnsupportedPrimitiveLeavesPacket) {
  photonic_engine e(quiet_engine_config(), 6);  // no gemv configured
  const std::vector<double> x(4, 0.5);
  net::packet pkt = make_gemv_request(net::ipv4(1, 0, 0, 1),
                                      net::ipv4(2, 0, 0, 1), x, 4);
  const auto before = pkt.payload;
  EXPECT_FALSE(e.process(pkt).computed);
  EXPECT_EQ(pkt.payload, before);
}

TEST(Engine, AlreadyComputedSkipped) {
  photonic_engine e(quiet_engine_config(), 7);
  gemv_task task;
  task.weights = phot::matrix(1, 2);
  task.weights.at(0, 0) = 1.0;
  e.configure_gemv(task);
  const std::vector<double> x{0.5, 0.5};
  net::packet pkt = make_gemv_request(net::ipv4(1, 0, 0, 1),
                                      net::ipv4(2, 0, 0, 1), x, 1);
  ASSERT_TRUE(e.process(pkt).computed);
  // Second engine must not recompute.
  EXPECT_FALSE(e.process(pkt).computed);
  const auto h = proto::peek_compute_header(pkt);
  EXPECT_EQ(h->hops, 1);
}

TEST(Engine, NonComputePacketIgnored) {
  photonic_engine e(quiet_engine_config(), 8);
  net::packet pkt;
  pkt.payload = {1, 2, 3};
  EXPECT_FALSE(e.process(pkt).computed);
}

TEST(Engine, OnFiberAvoidsInputConversions) {
  gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (double& w : task.weights.data) w = 0.3;

  engine_config on_cfg = quiet_engine_config();
  on_cfg.mode = compute_mode::on_fiber;
  photonic_engine on_fiber(on_cfg, 9);
  on_fiber.configure_gemv(task);

  engine_config oeo_cfg = quiet_engine_config();
  oeo_cfg.mode = compute_mode::oeo_per_hop;
  photonic_engine oeo(oeo_cfg, 9);
  oeo.configure_gemv(task);

  const std::vector<double> x(16, 0.4);
  net::packet p1 = make_gemv_request(net::ipv4(1, 0, 0, 1),
                                     net::ipv4(2, 0, 0, 1), x, 4);
  net::packet p2 = p1;
  const engine_report r_on = on_fiber.process(p1);
  const engine_report r_oeo = oeo.process(p2);
  ASSERT_TRUE(r_on.computed);
  ASSERT_TRUE(r_oeo.computed);
  EXPECT_EQ(r_on.input_conversions, 0u);
  // OEO: 16 receive-ADC + 4 rows x 4 passes x 16 DAC re-encodes.
  EXPECT_EQ(r_oeo.input_conversions, 16u + 4u * 4u * 16u);
}

TEST(Engine, ModesAgreeOnValues) {
  gemv_task task;
  task.weights = phot::matrix(2, 8);
  for (std::size_t c = 0; c < 8; ++c) {
    task.weights.at(0, c) = 0.5;
    task.weights.at(1, c) = c % 2 == 0 ? 0.8 : -0.8;
  }
  const std::vector<double> x{0.1, 0.9, -0.4, 0.6, -0.2, 0.3, 0.7, -0.5};
  std::vector<double> expected(2, 0.0);
  for (std::size_t c = 0; c < 8; ++c) {
    expected[0] += 0.5 * x[c];
    expected[1] += (c % 2 == 0 ? 0.8 : -0.8) * x[c];
  }
  for (const auto mode :
       {compute_mode::on_fiber, compute_mode::oeo_per_hop}) {
    engine_config cfg = quiet_engine_config();
    cfg.mode = mode;
    photonic_engine e(cfg, 10);
    e.configure_gemv(task);
    net::packet pkt = make_gemv_request(net::ipv4(1, 0, 0, 1),
                                        net::ipv4(2, 0, 0, 1), x, 2);
    ASSERT_TRUE(e.process(pkt).computed);
    const auto result = read_gemv_result(pkt);
    ASSERT_TRUE(result.has_value());
    EXPECT_NEAR((*result)[0], expected[0], 0.3);
    EXPECT_NEAR((*result)[1], expected[1], 0.3);
  }
}

TEST(Engine, PreambleDetection) {
  photonic_engine e(quiet_engine_config(), 11);
  const phot::waveform good = e.encode_preamble();
  EXPECT_TRUE(e.detect_preamble(good));
  // A wrong-length waveform is rejected outright.
  const phot::waveform junk(8, phot::make_field(1.0));
  EXPECT_FALSE(e.detect_preamble(junk));
  // A corrupted preamble (several symbols flipped) must not match.
  phot::waveform bad = good;
  for (std::size_t i = 1; i <= 6; ++i) bad[i] = -bad[i];  // pi phase flips
  EXPECT_FALSE(e.detect_preamble(bad));
}

TEST(Engine, ConfigValidation) {
  photonic_engine e(quiet_engine_config(), 12);
  EXPECT_THROW(e.configure_gemv(gemv_task{}), std::invalid_argument);
  EXPECT_THROW(e.configure_match(match_task{}), std::invalid_argument);
  EXPECT_THROW(e.configure_dnn(dnn_task{}), std::invalid_argument);
  gemv_task bad_bias;
  bad_bias.weights = phot::matrix(2, 2);
  bad_bias.bias = {1.0};  // wrong length
  EXPECT_THROW(e.configure_gemv(bad_bias), std::invalid_argument);
}

TEST(Engine, ClearTasksDropsSupport) {
  photonic_engine e(quiet_engine_config(), 13);
  gemv_task task;
  task.weights = phot::matrix(1, 1);
  task.weights.at(0, 0) = 1.0;
  e.configure_gemv(task);
  EXPECT_TRUE(e.supports(proto::primitive_id::p1_dot_product));
  e.clear_tasks();
  EXPECT_FALSE(e.supports(proto::primitive_id::p1_dot_product));
}

// --------------------------------------------------------- compute packets

TEST(ComputePackets, GemvRequestLayout) {
  const std::vector<double> x(8, 0.5);
  const net::packet pkt =
      make_gemv_request(net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), x, 3, 42);
  const auto h = proto::peek_compute_header(pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->task_id, 42u);
  EXPECT_EQ(h->input_length, 8);
  EXPECT_EQ(h->result_length, 3);
  EXPECT_TRUE(h->requires_compute());
  EXPECT_FALSE(h->has_result());
  EXPECT_EQ(pkt.payload.size(), proto::compute_header_bytes + 8 + 3);
}

TEST(ComputePackets, ReadersRejectWrongPrimitive) {
  const std::vector<double> x(4, 0.5);
  net::packet pkt =
      make_nonlinear_request(net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), x);
  photonic_engine e({}, 14);
  ASSERT_TRUE(e.process(pkt).computed);
  EXPECT_TRUE(read_nonlinear_result(pkt).has_value());
  EXPECT_FALSE(read_gemv_result(pkt).has_value());
  EXPECT_FALSE(read_match_result(pkt).has_value());
  EXPECT_FALSE(read_dnn_result(pkt).has_value());
}

TEST(ComputePackets, ReadersRequireResultFlag) {
  const std::vector<double> x(4, 0.5);
  const net::packet pkt =
      make_nonlinear_request(net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), x);
  EXPECT_FALSE(read_nonlinear_result(pkt).has_value());
}

// ----------------------------------------------------------------- runtime

net::packet fig1_gemv_packet(const onfiber_runtime& rt,
                             const std::vector<double>& x, std::size_t out) {
  return make_gemv_request(rt.fabric().topo().node_at(0).address,
                           rt.fabric().topo().node_at(3).address, x, out);
}

TEST(Runtime, ComputeOnPathSite) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (std::size_t c = 0; c < 4; ++c) task.weights.at(0, c) = 0.5;
  rt.deploy_engine(1, {}, 77).configure_gemv(task);  // site B (on A-B-D path)
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x{0.2, 0.4, 0.6, 0.8};
  rt.submit(fig1_gemv_packet(rt, x, 1), 0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
  EXPECT_EQ(rt.stats().uncomputed_delivered, 0u);
  const auto result = read_gemv_result(rt.deliveries()[0].pkt);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR((*result)[0], 0.5 * (0.2 + 0.4 + 0.6 + 0.8), 0.15);
}

TEST(Runtime, PlainTrafficUnaffected) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 78);
  rt.install_compute_routes_via_nearest_site();
  net::packet pkt;
  pkt.src = rt.fabric().topo().node_at(0).address;
  pkt.dst = rt.fabric().topo().node_at(3).address;
  pkt.payload.resize(64);
  rt.submit(pkt, 0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 0u);
  EXPECT_EQ(rt.stats().redirected, 0u);
}

TEST(Runtime, NoCapableSiteDeliversUncomputed) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  // Engine with no gemv task: cannot serve p1.
  rt.deploy_engine(1, {}, 79);
  rt.install_compute_routes_via_nearest_site();
  const std::vector<double> x(4, 0.5);
  rt.submit(fig1_gemv_packet(rt, x, 1), 0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().uncomputed_delivered, 1u);
}

TEST(Runtime, MalformedComputeDropped) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  net::packet pkt;
  pkt.src = rt.fabric().topo().node_at(0).address;
  pkt.dst = rt.fabric().topo().node_at(3).address;
  pkt.proto = net::ip_proto::compute;
  pkt.payload = {1, 2, 3};  // no valid header
  rt.submit(pkt, 0);
  engine.run();
  EXPECT_EQ(rt.deliveries().size(), 0u);
  EXPECT_EQ(rt.stats().malformed_dropped, 1u);
}

TEST(Runtime, OffPathSiteReachedViaComputeRoutes) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  gemv_task task;
  task.weights = phot::matrix(1, 2);
  task.weights.at(0, 0) = 1.0;
  task.weights.at(0, 1) = 1.0;
  // Deploy only at C; A->D shortest path goes via B, so compute packets
  // must be steered through C.
  rt.deploy_engine(2, {}, 80).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();
  const std::vector<double> x{0.3, 0.4};
  rt.submit(fig1_gemv_packet(rt, x, 1), 0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
  EXPECT_GE(rt.stats().redirected, 1u);
  EXPECT_TRUE(read_gemv_result(rt.deliveries()[0].pkt).has_value());
}

TEST(Runtime, SerialEngineQueuesPackets) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  gemv_task task;
  task.weights = phot::matrix(4, 64);
  for (double& w : task.weights.data) w = 0.1;
  rt.deploy_engine(1, {}, 81).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x(64, 0.5);
  for (int i = 0; i < 4; ++i) rt.submit(fig1_gemv_packet(rt, x, 4), 0);
  engine.run();
  EXPECT_EQ(rt.deliveries().size(), 4u);
  EXPECT_EQ(rt.stats().computed, 4u);
  // All packets queued behind one analog engine: total busy time is the
  // sum of the individual compute times.
  EXPECT_GT(rt.site_busy_s(1), 0.0);
  // Deliveries are spread out, not simultaneous.
  EXPECT_GT(rt.deliveries()[3].time_s, rt.deliveries()[0].time_s);
}

TEST(Runtime, SiteQueries) {
  net::shard_engine engine;
  onfiber_runtime rt(engine, net::make_figure1_topology());
  rt.deploy_engine(2, {}, 82);
  EXPECT_EQ(rt.sites(), (std::vector<net::node_id>{2}));
  EXPECT_TRUE(rt.site_supports(2, proto::primitive_id::p3_nonlinear));
  EXPECT_FALSE(rt.site_supports(2, proto::primitive_id::p1_dot_product));
  EXPECT_FALSE(rt.site_supports(0, proto::primitive_id::p3_nonlinear));
  EXPECT_DOUBLE_EQ(rt.site_busy_s(0), 0.0);
}

}  // namespace
}  // namespace onfiber::core
