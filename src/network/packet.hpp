// packet.hpp — the simulator's packet representation.
//
// A deliberately small IP-like header plus an opaque byte payload. The
// compute-communication protocol (src/protocol) layers its own header
// inside the payload, exactly as the paper proposes ("layered on top of
// the IP header", §3).
#pragma once

#include <cstdint>
#include <vector>

#include "network/address.hpp"

namespace onfiber::net {

/// Transport protocol selector. `compute` marks packets that carry an
/// on-fiber compute header as the first payload bytes.
enum class ip_proto : std::uint8_t {
  udp = 17,
  tcp = 6,
  compute = 253,  ///< experimental/testing value per RFC 3692
};

/// Simulator packet. Copyable; payload is owned.
struct packet {
  // --- wire-visible fields -------------------------------------------
  ipv4 src{};
  ipv4 dst{};
  std::uint8_t ttl = 64;
  ip_proto proto = ip_proto::udp;

  /// Compute-header memo (simulation bookkeeping, not on the wire): the
  /// primitive and flags of the compute header at the front of `payload`,
  /// valid only while `valid` is set. The on-fiber runtime's per-node
  /// hook fills it on its first successful checksum-first parse and then
  /// reads it instead of re-parsing at every hop; its meaning belongs to
  /// the runtime and the protocol layer — the network never parses. Every
  /// payload write clears it: wan_fabric injection (send and compute
  /// re-entry), each BER bit flip, and the runtime handing the packet to
  /// a compute engine. Any other code that writes payload bytes of a
  /// packet in flight (a fabric hook, say) must clear it too. It sits in
  /// the padding after `proto`, so it costs the struct no size.
  struct header_memo {
    std::uint8_t valid = 0;
    std::uint8_t primitive = 0;
    std::uint8_t flags = 0;
  };
  header_memo memo;

  std::vector<std::uint8_t> payload;

  // --- simulation bookkeeping (not on the wire) ----------------------
  std::uint64_t id = 0;           ///< unique per simulation
  double created_s = 0.0;         ///< creation timestamp
  std::uint32_t flow_hash = 0;    ///< 5-tuple-style hash for ECMP/LB

  /// Destination-node cache maintained by the fabric (never trusted
  /// blindly: revalidated against the node's attached prefix on every
  /// use, so a hook that rewrites dst just falls back to the slow path).
  std::uint32_t dest_hint = ~std::uint32_t{0};

  /// Packet-lifecycle trace key (obs::tracer): assigned by the fabric on
  /// first injection while tracing is enabled, 0 otherwise. Copies made
  /// for retransmission start at 0 again, so every transmission gets its
  /// own per-hop record chain.
  std::uint32_t trace_id = 0;

  /// Reliability failover pin: retransmit copies of a task the
  /// controller re-homed carry the alternate compute site here, so
  /// in-transit redirection is decided from packet state alone instead
  /// of a task-table lookup (which would cross shards in the parallel
  /// engine). ~0 = unpinned.
  std::uint32_t pinned_site = ~std::uint32_t{0};

  /// Serialized size on the wire [bytes]: 20-byte IP header + payload.
  [[nodiscard]] std::size_t wire_bytes() const {
    return 20 + payload.size();
  }
};

// The hot path moves packets by value at every hop; the memo above must
// stay in padding.
static_assert(sizeof(packet) == 72, "net::packet grew past 72 bytes");

/// Free list of payload buffers. Packets that die inside the fabric
/// (delivered or dropped) donate their payload allocation back here, and
/// new packets can start from a recycled buffer instead of a cold
/// std::vector — at steady state the forwarding loop allocates nothing.
/// Value semantics are untouched: a recycled buffer is always cleared
/// before reuse.
class payload_pool {
 public:
  /// Most buffers the pool holds; further donations are dropped.
  static constexpr std::size_t kMaxBuffers = 4096;

  /// An empty buffer, reusing a pooled allocation when one is available.
  [[nodiscard]] std::vector<std::uint8_t> acquire() {
    if (free_.empty()) return {};
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }

  /// Donate a buffer's allocation. Empty-capacity buffers (moved-from
  /// payloads) are ignored; the pool is capped so pathological traffic
  /// cannot hoard memory.
  void recycle(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0 || free_.size() >= kMaxBuffers) return;
    free_.push_back(std::move(buf));
  }
  void recycle(packet&& pkt) { recycle(std::move(pkt.payload)); }

 private:
  std::vector<std::vector<std::uint8_t>> free_;
};

/// FNV-1a over the fields that define a flow; used for ECMP hashing.
[[nodiscard]] inline std::uint32_t flow_hash_of(ipv4 src, ipv4 dst,
                                                std::uint16_t src_port,
                                                std::uint16_t dst_port,
                                                std::uint8_t proto) {
  std::uint32_t h = 2166136261U;
  const auto mix = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 16777619U;
    }
  };
  mix(src.value);
  mix(dst.value);
  mix((std::uint32_t{src_port} << 16) | dst_port);
  mix(proto);
  return h;
}

}  // namespace onfiber::net
