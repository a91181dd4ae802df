// compute_header.hpp — the paper's compute-communication protocol (§3).
//
// "Our additional photonic computing packet header is layered on top of
//  the IP header to identify the photonic computing primitive ID."
//
// Wire format (big-endian, 24 bytes), carried as the first payload bytes
// of packets whose ip_proto == compute:
//
//   0        2     3          4        8         10        12
//   +--------+-----+----------+--------+---------+---------+
//   | magic  | ver | primitive| task_id| in_off  | in_len  |
//   +--------+-----+----------+--------+---------+---------+
//   12        14        16      17      18       19       20    21    22
//   +---------+---------+------+-------+--------+--------+------+-----+
//   | res_off | res_len | flags| hops  | stage2 | stage3 | rsvd | cks |
//   +---------+---------+------+-------+--------+--------+------+-----+
//
// Offsets are relative to the end of the compute header (i.e. into the
// application payload). `primitive` is the *current* stage; `stage2` and
// `stage3` (primitive ids, none = 0) are the remaining stages of the
// task chain — the path-shaped "computation DAG" of §3, executed across
// multiple transponders ("distributed on-fiber photonic computing", §5).
// When an engine finishes a non-final stage it promotes the chain: the
// result region becomes the next stage's input region and the next
// primitive becomes current. `hops` counts stages already applied.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "network/packet.hpp"

namespace onfiber::proto {

/// The photonic computing primitives of §2.1.
enum class primitive_id : std::uint8_t {
  none = 0,
  p1_dot_product = 1,
  p2_pattern_match = 2,
  p3_nonlinear = 3,
  p1_p3_dnn = 4,  ///< fused vector-product + nonlinearity (DNN layer/graph)
};

/// Header flag bits.
enum header_flags : std::uint8_t {
  flag_has_result = 0x01,      ///< a transponder already wrote the result
  flag_require_compute = 0x02, ///< drop at dst if never computed
  flag_intensity_encoded = 0x04,  ///< compute input is intensity-modulated
  flag_phase_encoded = 0x08,      ///< compute input is BPSK phase-encoded
  flag_ack = 0x10,  ///< end-to-end delivery ack (reliability layer); the
                    ///< header is the whole message, task_id names the
                    ///< acknowledged task
  flag_deferred = 0x40,  ///< a site's admission control deferred this
                         ///< packet (queue at the bound): it forwards
                         ///< raw and must not be steered back toward
                         ///< compute sites — it may still compute at a
                         ///< capable site it happens to transit
  flag_tracked = 0x20,  ///< reliability layer tracks this task: the
                        ///< destination acks every result delivery and
                        ///< counts duplicates from the wire bit alone —
                        ///< no task-table lookup, so the decision is
                        ///< shard-local on the parallel engine
};

inline constexpr std::uint16_t compute_magic = 0x0F1B;  // "OFIBer"
inline constexpr std::uint8_t compute_version = 2;
inline constexpr std::size_t compute_header_bytes = 24;

struct compute_header {
  std::uint8_t version = compute_version;
  primitive_id primitive = primitive_id::none;  ///< current stage
  std::uint32_t task_id = 0;
  std::uint16_t input_offset = 0;   ///< payload offset of compute input
  std::uint16_t input_length = 0;   ///< bytes of compute input
  std::uint16_t result_offset = 0;  ///< payload offset reserved for result
  std::uint16_t result_length = 0;  ///< bytes of result (set by the engine)
  std::uint8_t flags = 0;
  std::uint8_t hops = 0;            ///< compute stages applied so far
  primitive_id stage2 = primitive_id::none;  ///< next stage, if any
  primitive_id stage3 = primitive_id::none;  ///< stage after that, if any
  /// Samples batched in this packet (>= 1). Batching amortizes the
  /// per-packet preamble/queueing overhead at a compute site; the input
  /// region holds `batch` equal-size samples back to back and the result
  /// region receives `batch` equal-size results.
  std::uint8_t batch = 1;

  [[nodiscard]] bool has_result() const { return flags & flag_has_result; }
  [[nodiscard]] bool is_ack() const { return flags & flag_ack; }
  [[nodiscard]] bool is_tracked() const { return flags & flag_tracked; }
  [[nodiscard]] bool requires_compute() const {
    return flags & flag_require_compute;
  }
  [[nodiscard]] bool has_more_stages() const {
    return stage2 != primitive_id::none;
  }

  /// Promote the chain after the current stage produced `result_len`
  /// bytes at `result_offset`: that region becomes the next stage's
  /// input and the next primitive becomes current. Requires
  /// has_more_stages().
  void advance_stage(std::uint16_t result_len) {
    input_offset = result_offset;
    input_length = result_len;
    result_offset = static_cast<std::uint16_t>(result_offset + result_len);
    result_length = 0;
    primitive = stage2;
    stage2 = stage3;
    stage3 = primitive_id::none;
  }
};

/// Internet-style 16-bit ones'-complement checksum.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Serialize to the 24-byte wire format (checksum computed and filled in).
[[nodiscard]] std::vector<std::uint8_t> serialize(const compute_header& h);

enum class parse_error {
  ok,
  too_short,
  bad_magic,
  bad_version,
  bad_checksum,
  bad_primitive,
};

struct parse_result {
  parse_error error = parse_error::ok;
  compute_header header{};
  [[nodiscard]] explicit operator bool() const {
    return error == parse_error::ok;
  }
};

/// Parse a compute header from the first bytes of `data`.
[[nodiscard]] parse_result parse(std::span<const std::uint8_t> data);

// --------------------------------------------------- packet-level helpers

/// Prepend a compute header to the packet payload and mark the protocol.
/// Offsets in `h` refer to the payload as it is before this call.
void attach_compute_header(net::packet& pkt, const compute_header& h);

/// Parse the compute header of a compute packet (nullopt if absent/bad).
[[nodiscard]] std::optional<compute_header> peek_compute_header(
    const net::packet& pkt);

/// Rewrite the compute header in place (e.g. after computing a result).
/// Returns false if the packet carries no valid header.
bool rewrite_compute_header(net::packet& pkt, const compute_header& h);

/// View of the compute input bytes (into pkt.payload, past the header).
/// Empty span if the header/bounds are invalid.
[[nodiscard]] std::span<const std::uint8_t> compute_input(
    const net::packet& pkt, const compute_header& h);

}  // namespace onfiber::proto
