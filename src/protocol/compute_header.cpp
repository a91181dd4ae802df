#include "protocol/compute_header.hpp"

#include <algorithm>
#include <array>

namespace onfiber::proto {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v & 0xff);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[2] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[3] = static_cast<std::uint8_t>(v & 0xff);
}

/// Serialize into a fixed wire buffer (no allocation).
void serialize_into(const compute_header& h,
                    std::array<std::uint8_t, compute_header_bytes>& out) {
  put_u16(&out[0], compute_magic);
  out[2] = h.version;
  out[3] = static_cast<std::uint8_t>(h.primitive);
  put_u32(&out[4], h.task_id);
  put_u16(&out[8], h.input_offset);
  put_u16(&out[10], h.input_length);
  put_u16(&out[12], h.result_offset);
  put_u16(&out[14], h.result_length);
  out[16] = h.flags;
  out[17] = h.hops;
  out[18] = static_cast<std::uint8_t>(h.stage2);
  out[19] = static_cast<std::uint8_t>(h.stage3);
  out[20] = h.batch == 0 ? 1 : h.batch;
  out[21] = 0;  // reserved (alignment)
  // Checksum over the header with the checksum field zeroed.
  put_u16(&out[22], 0);
  put_u16(&out[22], internet_checksum(out));
}

[[nodiscard]] std::uint16_t get_u16(std::span<const std::uint8_t> d,
                                    std::size_t off) {
  return static_cast<std::uint16_t>((std::uint16_t{d[off]} << 8) |
                                    std::uint16_t{d[off + 1]});
}

[[nodiscard]] std::uint32_t get_u32(std::span<const std::uint8_t> d,
                                    std::size_t off) {
  return (std::uint32_t{d[off]} << 24) | (std::uint32_t{d[off + 1]} << 16) |
         (std::uint32_t{d[off + 2]} << 8) | std::uint32_t{d[off + 3]};
}

[[nodiscard]] bool valid_primitive(std::uint8_t p) {
  return p <= static_cast<std::uint8_t>(primitive_id::p1_p3_dnn);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (std::uint32_t{data[i]} << 8) | std::uint32_t{data[i + 1]};
  }
  if (i < data.size()) sum += std::uint32_t{data[i]} << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::vector<std::uint8_t> serialize(const compute_header& h) {
  std::array<std::uint8_t, compute_header_bytes> wire;
  serialize_into(h, wire);
  return {wire.begin(), wire.end()};
}

parse_result parse(std::span<const std::uint8_t> data) {
  parse_result r;
  if (data.size() < compute_header_bytes) {
    r.error = parse_error::too_short;
    return r;
  }
  // Verify the checksum before any framing or semantic field: a bit-flip
  // anywhere in the header must classify as bad_checksum, never as
  // bad_magic/bad_version/bad_primitive — the robustness benches build
  // their error taxonomy on that distinction (in-flight corruption vs.
  // genuinely malformed requests). bad_magic etc. remain reachable only
  // for intact buffers that really carry something else.
  std::uint8_t scratch[compute_header_bytes];
  std::copy_n(data.begin(), compute_header_bytes, scratch);
  scratch[compute_header_bytes - 2] = 0;
  scratch[compute_header_bytes - 1] = 0;
  if (internet_checksum({scratch, compute_header_bytes}) !=
      get_u16(data, compute_header_bytes - 2)) {
    r.error = parse_error::bad_checksum;
    return r;
  }
  if (get_u16(data, 0) != compute_magic) {
    r.error = parse_error::bad_magic;
    return r;
  }
  if (data[2] != compute_version) {
    r.error = parse_error::bad_version;
    return r;
  }
  if (!valid_primitive(data[3]) || !valid_primitive(data[18]) ||
      !valid_primitive(data[19])) {
    r.error = parse_error::bad_primitive;
    return r;
  }
  compute_header& h = r.header;
  h.version = data[2];
  h.primitive = static_cast<primitive_id>(data[3]);
  h.task_id = get_u32(data, 4);
  h.input_offset = get_u16(data, 8);
  h.input_length = get_u16(data, 10);
  h.result_offset = get_u16(data, 12);
  h.result_length = get_u16(data, 14);
  h.flags = data[16];
  h.hops = data[17];
  h.stage2 = static_cast<primitive_id>(data[18]);
  h.stage3 = static_cast<primitive_id>(data[19]);
  h.batch = data[20] == 0 ? 1 : data[20];
  r.error = parse_error::ok;
  return r;
}

void attach_compute_header(net::packet& pkt, const compute_header& h) {
  std::array<std::uint8_t, compute_header_bytes> wire;
  serialize_into(h, wire);
  pkt.payload.insert(pkt.payload.begin(), wire.begin(), wire.end());
  pkt.proto = net::ip_proto::compute;
}

std::optional<compute_header> peek_compute_header(const net::packet& pkt) {
  if (pkt.proto != net::ip_proto::compute) return std::nullopt;
  const parse_result r = parse(pkt.payload);
  if (!r) return std::nullopt;
  return r.header;
}

bool rewrite_compute_header(net::packet& pkt, const compute_header& h) {
  if (pkt.proto != net::ip_proto::compute ||
      pkt.payload.size() < compute_header_bytes) {
    return false;
  }
  if (!parse(pkt.payload)) return false;
  std::array<std::uint8_t, compute_header_bytes> wire;
  serialize_into(h, wire);
  std::copy(wire.begin(), wire.end(), pkt.payload.begin());
  return true;
}

std::span<const std::uint8_t> compute_input(const net::packet& pkt,
                                            const compute_header& h) {
  const std::size_t begin = compute_header_bytes + h.input_offset;
  const std::size_t end = begin + h.input_length;
  if (end > pkt.payload.size() || h.input_length == 0) return {};
  return std::span<const std::uint8_t>(pkt.payload).subspan(begin,
                                                            h.input_length);
}

}  // namespace onfiber::proto
