// Tests for the compute-communication protocol (§3): header wire format,
// robustness against corruption, packet helpers, two-field routing.
#include <gtest/gtest.h>

#include "photonics/rng.hpp"
#include "protocol/codec.hpp"
#include "protocol/compute_header.hpp"
#include "protocol/compute_routing.hpp"

namespace onfiber::proto {
namespace {

compute_header sample_header() {
  compute_header h;
  h.primitive = primitive_id::p1_dot_product;
  h.task_id = 0xdeadbeef;
  h.input_offset = 4;
  h.input_length = 64;
  h.result_offset = 68;
  h.result_length = 16;
  h.flags = flag_require_compute | flag_intensity_encoded;
  h.hops = 2;
  return h;
}

TEST(ComputeHeader, WireSizeFixed) {
  EXPECT_EQ(serialize(sample_header()).size(), compute_header_bytes);
}

TEST(ComputeHeader, RoundTrip) {
  const compute_header h = sample_header();
  const auto wire = serialize(h);
  const parse_result r = parse(wire);
  ASSERT_TRUE(r);
  EXPECT_EQ(r.header.primitive, h.primitive);
  EXPECT_EQ(r.header.task_id, h.task_id);
  EXPECT_EQ(r.header.input_offset, h.input_offset);
  EXPECT_EQ(r.header.input_length, h.input_length);
  EXPECT_EQ(r.header.result_offset, h.result_offset);
  EXPECT_EQ(r.header.result_length, h.result_length);
  EXPECT_EQ(r.header.flags, h.flags);
  EXPECT_EQ(r.header.hops, h.hops);
}

TEST(ComputeHeader, RoundTripFuzz) {
  phot::rng g(1);
  for (int i = 0; i < 500; ++i) {
    compute_header h;
    h.primitive = static_cast<primitive_id>(g.below(5));
    h.task_id = static_cast<std::uint32_t>(g());
    h.input_offset = static_cast<std::uint16_t>(g());
    h.input_length = static_cast<std::uint16_t>(g());
    h.result_offset = static_cast<std::uint16_t>(g());
    h.result_length = static_cast<std::uint16_t>(g());
    h.flags = static_cast<std::uint8_t>(g());
    h.hops = static_cast<std::uint8_t>(g());
    const parse_result r = parse(serialize(h));
    ASSERT_TRUE(r) << "iteration " << i;
    EXPECT_EQ(r.header.task_id, h.task_id);
    EXPECT_EQ(r.header.input_length, h.input_length);
  }
}

TEST(ComputeHeader, TooShortRejected) {
  const auto wire = serialize(sample_header());
  for (std::size_t n = 0; n < compute_header_bytes; ++n) {
    const parse_result r =
        parse(std::span<const std::uint8_t>(wire.data(), n));
    EXPECT_EQ(r.error, parse_error::too_short);
  }
}

/// Recompute and refresh the checksum of a (possibly mutated) wire
/// header, so structural errors can be observed past the checksum gate.
std::vector<std::uint8_t> with_fixed_checksum(std::vector<std::uint8_t> wire) {
  wire[compute_header_bytes - 2] = 0;
  wire[compute_header_bytes - 1] = 0;
  const std::uint16_t sum = internet_checksum(wire);
  wire[compute_header_bytes - 2] = static_cast<std::uint8_t>(sum >> 8);
  wire[compute_header_bytes - 1] = static_cast<std::uint8_t>(sum & 0xff);
  return wire;
}

TEST(ComputeHeader, BadMagicRejected) {
  // Structural errors are reported only for intact (checksum-valid)
  // buffers; a sender that genuinely framed a different protocol.
  auto wire = serialize(sample_header());
  wire[0] ^= 0xff;
  EXPECT_EQ(parse(wire).error, parse_error::bad_checksum);
  EXPECT_EQ(parse(with_fixed_checksum(wire)).error, parse_error::bad_magic);
}

TEST(ComputeHeader, BadVersionRejected) {
  auto wire = serialize(sample_header());
  wire[2] = 99;
  EXPECT_EQ(parse(wire).error, parse_error::bad_checksum);
  EXPECT_EQ(parse(with_fixed_checksum(wire)).error, parse_error::bad_version);
}

TEST(ComputeHeader, BadPrimitiveRejected) {
  auto wire = serialize(sample_header());
  wire[3] = 200;
  EXPECT_EQ(parse(wire).error, parse_error::bad_checksum);
  EXPECT_EQ(parse(with_fixed_checksum(wire)).error,
            parse_error::bad_primitive);
  // Chain stages validate the same way.
  auto stage = serialize(sample_header());
  stage[18] = 7;
  EXPECT_EQ(parse(with_fixed_checksum(stage)).error,
            parse_error::bad_primitive);
}

TEST(ComputeHeader, SingleBitCorruptionIsBadChecksum) {
  // The checksum is verified before any framing or semantic field, so a
  // bit-flip anywhere — magic, version, primitive, stages, even the
  // checksum itself — must classify as bad_checksum, never as
  // bad_magic/bad_version/bad_primitive. The robustness benches' error
  // taxonomy (in-flight corruption vs malformed request) depends on it.
  const auto wire = serialize(sample_header());
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = wire;
      corrupted[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_EQ(parse(corrupted).error, parse_error::bad_checksum)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ComputeHeader, EveryByteValueCorruptionIsBadChecksum) {
  // Exhaustive per-byte fuzz: every wrong value of every header byte.
  phot::rng g(42);
  for (int iter = 0; iter < 8; ++iter) {
    compute_header h;
    h.primitive = static_cast<primitive_id>(1 + g.below(4));
    h.task_id = static_cast<std::uint32_t>(g());
    h.input_offset = static_cast<std::uint16_t>(g());
    h.input_length = static_cast<std::uint16_t>(g());
    h.result_offset = static_cast<std::uint16_t>(g());
    h.result_length = static_cast<std::uint16_t>(g());
    h.flags = static_cast<std::uint8_t>(g());
    h.hops = static_cast<std::uint8_t>(g());
    const auto wire = serialize(h);
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int v = 0; v < 256; ++v) {
        if (static_cast<std::uint8_t>(v) == wire[byte]) continue;
        auto corrupted = wire;
        corrupted[byte] = static_cast<std::uint8_t>(v);
        // A single-byte substitution shifts the ones'-complement sum by
        // less than 0xffff, so it can never alias — detection is
        // guaranteed, and it must always be classified as corruption.
        EXPECT_EQ(parse(corrupted).error, parse_error::bad_checksum)
            << "iter " << iter << " byte " << byte << " value " << v;
      }
    }
  }
}

TEST(ComputeHeader, ChecksumKnownValue) {
  // Internet checksum of 0x0001 0x0203 is ~(0x0204) = 0xFDFB.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0x02, 0x03};
  EXPECT_EQ(internet_checksum(data), 0xFDFB);
}

TEST(ComputeHeader, ChecksumOddLength) {
  const std::vector<std::uint8_t> data{0xAB};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xAB00u));
}

// ----------------------------------------------------- packet-level helpers

TEST(PacketHelpers, AttachAndPeek) {
  net::packet pkt;
  pkt.payload = {1, 2, 3, 4};
  compute_header h;
  h.primitive = primitive_id::p2_pattern_match;
  h.input_length = 4;
  h.result_offset = 0;
  h.result_length = 0;
  attach_compute_header(pkt, h);
  EXPECT_EQ(pkt.proto, net::ip_proto::compute);
  EXPECT_EQ(pkt.payload.size(), compute_header_bytes + 4);
  const auto peeked = peek_compute_header(pkt);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->primitive, primitive_id::p2_pattern_match);
}

TEST(PacketHelpers, PeekRequiresComputeProto) {
  net::packet pkt;
  pkt.payload = serialize(sample_header());
  pkt.proto = net::ip_proto::udp;
  EXPECT_FALSE(peek_compute_header(pkt).has_value());
}

TEST(PacketHelpers, RewriteUpdatesInPlace) {
  net::packet pkt;
  pkt.payload = {9, 9};
  compute_header h = sample_header();
  h.input_offset = 0;
  h.input_length = 2;
  h.result_length = 0;
  attach_compute_header(pkt, h);
  h.flags |= flag_has_result;
  h.hops = 7;
  EXPECT_TRUE(rewrite_compute_header(pkt, h));
  const auto peeked = peek_compute_header(pkt);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_TRUE(peeked->has_result());
  EXPECT_EQ(peeked->hops, 7);
  // Payload beyond the header untouched.
  EXPECT_EQ(pkt.payload[compute_header_bytes], 9);
}

TEST(PacketHelpers, RewriteFailsWithoutHeader) {
  net::packet pkt;
  pkt.payload = {1, 2, 3};
  EXPECT_FALSE(rewrite_compute_header(pkt, sample_header()));
}

TEST(PacketHelpers, RewriteRejectsCorruptedHeaderAndKeepsPayload) {
  net::packet pkt;
  pkt.payload = {5, 6, 7, 8};
  compute_header h = sample_header();
  h.input_offset = 0;
  h.input_length = 4;
  attach_compute_header(pkt, h);
  pkt.payload[9] ^= 0x04;  // in-flight bit flip inside the header
  const std::vector<std::uint8_t> before = pkt.payload;
  h.flags |= flag_has_result;
  EXPECT_FALSE(rewrite_compute_header(pkt, h));
  EXPECT_EQ(pkt.payload, before);
}

TEST(PacketHelpers, InputViewBounds) {
  net::packet pkt;
  pkt.payload = {10, 20, 30, 40};
  compute_header h;
  h.input_offset = 1;
  h.input_length = 2;
  attach_compute_header(pkt, h);
  const auto in = compute_input(pkt, *peek_compute_header(pkt));
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0], 20);
  EXPECT_EQ(in[1], 30);
}

TEST(PacketHelpers, InputViewRejectsOutOfBounds) {
  net::packet pkt;
  pkt.payload = {1, 2};
  compute_header h;
  h.input_offset = 0;
  h.input_length = 10;  // beyond payload
  attach_compute_header(pkt, h);
  EXPECT_TRUE(compute_input(pkt, *peek_compute_header(pkt)).empty());
}

// ------------------------------------------------------------------ codec

TEST(Codec, UnitRoundTripWithinLsb) {
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    EXPECT_NEAR(decode_unit_u8(encode_unit_u8(x)), x, 1.0 / 255.0);
  }
}

TEST(Codec, SignedRoundTripWithinLsb) {
  for (double x = -1.0; x <= 1.0; x += 0.01) {
    EXPECT_NEAR(decode_signed_u8(encode_signed_u8(x)), x, 2.0 / 255.0);
  }
}

TEST(Codec, ClampsOutOfRange) {
  EXPECT_EQ(encode_unit_u8(2.0), 255);
  EXPECT_EQ(encode_unit_u8(-1.0), 0);
  EXPECT_EQ(encode_signed_u8(5.0), 255);
  // The symmetric grid bottoms out at byte 1 (byte 0 is never produced;
  // decode clamps it to -1).
  EXPECT_EQ(encode_signed_u8(-5.0), 1);
  EXPECT_DOUBLE_EQ(decode_signed_u8(0), -1.0);
}

TEST(Codec, SignedZeroRoundTripsExactly) {
  // The old (x+1)*127.5 offset-binary map had no code for 0.0 —
  // encode(0) = 128 decoded to +1/255, a DC bias on every
  // differential-rail vector. The symmetric map must be exact at zero.
  EXPECT_EQ(encode_signed_u8(0.0), 128);
  EXPECT_EQ(decode_signed_u8(encode_signed_u8(0.0)), 0.0);
  EXPECT_EQ(decode_signed_u8(128), 0.0);
  // ... and exact at the endpoints.
  EXPECT_DOUBLE_EQ(decode_signed_u8(encode_signed_u8(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(decode_signed_u8(encode_signed_u8(-1.0)), -1.0);
}

TEST(Codec, SignedRoundTripIsOdd) {
  // decode(encode(x)) must be odd in x: quantization error may not
  // introduce a sign asymmetry anywhere on the grid.
  for (int i = 0; i <= 1000; ++i) {
    const double x = static_cast<double>(i) / 1000.0;
    EXPECT_DOUBLE_EQ(decode_signed_u8(encode_signed_u8(x)),
                     -decode_signed_u8(encode_signed_u8(-x)))
        << "x = " << x;
  }
}

TEST(Codec, VectorHelpers) {
  const std::vector<double> xs{0.0, 0.5, 1.0};
  const auto bytes = encode_unit_vector(xs);
  const auto back = decode_unit_vector(bytes);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_NEAR(back[1], 0.5, 1.0 / 255.0);
}

// ------------------------------------------------------- two-field routing

TEST(ComputeRouting, ComputeRoutePreferred) {
  compute_routing_table<int> t;
  const net::prefix dst(net::ipv4(10, 2, 0, 0), 16);
  t.insert_plain(dst, 1);
  t.insert_compute(dst, primitive_id::p1_dot_product, 2);
  EXPECT_EQ(t.lookup(net::ipv4(10, 2, 3, 4), primitive_id::p1_dot_product)
                .value(),
            2);
  // Other primitives fall back to the plain route.
  EXPECT_EQ(
      t.lookup(net::ipv4(10, 2, 3, 4), primitive_id::p2_pattern_match).value(),
      1);
  EXPECT_EQ(t.lookup(net::ipv4(10, 2, 3, 4), primitive_id::none).value(), 1);
}

TEST(ComputeRouting, MissEverywhere) {
  const compute_routing_table<int> t;
  EXPECT_FALSE(
      t.lookup(net::ipv4(1, 1, 1, 1), primitive_id::p1_dot_product).has_value());
}

TEST(ComputeRouting, SizeCountsAllTables) {
  compute_routing_table<int> t;
  t.insert_plain(net::prefix(net::ipv4(10, 0, 0, 0), 8), 1);
  t.insert_compute(net::prefix(net::ipv4(10, 0, 0, 0), 8),
                   primitive_id::p3_nonlinear, 2);
  EXPECT_EQ(t.size(), 2u);
}

TEST(ComputeRouting, PreambleShape) {
  EXPECT_EQ(optical_preamble_bits.size(), 16u);
  // Not all-zero / all-one (needs structure for correlation detection).
  int ones = 0;
  for (const auto b : optical_preamble_bits) ones += b;
  EXPECT_GT(ones, 4);
  EXPECT_LT(ones, 12);
}

}  // namespace
}  // namespace onfiber::proto
