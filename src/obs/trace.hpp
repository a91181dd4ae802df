// trace.hpp — packet-lifecycle tracer: a bounded ring buffer of per-hop
// records answering "where did this packet go, and where did it die?".
//
// Every packet entering the fabric while tracing is enabled gets a
// process-unique trace_id (net::packet::trace_id); the fabric and the
// on-fiber runtime then append one hop_record per meaningful event —
// inject, forward, redirect, compute, batch, deliver, drop (with a
// reason). The ring is fixed-capacity: the slot array is laid out once
// at construction, recording never allocates, old
// records are overwritten, and total_recorded() keeps the true event
// count so wraparound is observable. tools/onfiber_trace pretty-prints
// a packet's life from these records.
//
// Concurrency: record() and next_trace_id() are lock-free — a single
// fetch_add reserves a ticket, and the 24-byte record is stored into
// its slot as three relaxed atomic words. This keeps tracing off the
// hot path's lock ranks and makes it safe to call from every shard
// thread of the sharded event engine concurrently. snapshot() and
// clear() serialize against each other with a mutex; clearing while
// threads are still recording is not supported. A snapshot taken while recording is in
// flight is safe (no torn words, no UB) but may observe a slot
// mid-overwrite after wraparound; take snapshots at quiescence for
// exact results — every in-tree consumer does.
//
// Determinism contract: recording only *reads* simulation state. No
// events are scheduled, no RNG is touched, so enabling the tracer
// cannot move a single delivery timestamp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace onfiber::obs {

/// What happened to the packet at this hop.
enum class hop_action : std::uint8_t {
  inject,    ///< entered the fabric at `node` (send / re-injection)
  forward,   ///< serialized onto a link from `node` toward aux
  redirect,  ///< a hook steered it from `node` toward aux
  compute,   ///< a photonic engine computed it at `node` (aux = task id)
  deliver,   ///< delivered at `node`
  drop,      ///< dropped at `node` (reason says why)
};

[[nodiscard]] const char* to_string(hop_action a);

/// Why a packet died (mirrors net::drop_stats, plus `none` for
/// non-drop records).
enum class drop_reason : std::uint8_t {
  none,
  ttl_expired,
  link_down,
  no_route,
  hook_drop,
  bad_redirect,
};

[[nodiscard]] const char* to_string(drop_reason r);

/// One per-hop record, 24 bytes.
struct hop_record {
  std::uint32_t trace_id = 0;  ///< net::packet::trace_id
  std::uint32_t node = 0;      ///< where it happened
  double time_s = 0.0;         ///< simulation time
  hop_action action = hop_action::inject;
  drop_reason reason = drop_reason::none;
  std::uint16_t pad = 0;
  std::uint32_t aux = 0;  ///< action-specific: next hop / task id

  bool operator==(const hop_record&) const = default;
};

class tracer {
 public:
  static constexpr std::size_t kCapacity = 8192;

  tracer();

  [[nodiscard]] static tracer& global();

  [[nodiscard]] std::size_t capacity() const { return kCapacity; }

  /// Allocate a fresh packet trace id (1-based; 0 means "untraced").
  /// Lock-free.
  [[nodiscard]] std::uint32_t next_trace_id();

  /// Append one record, overwriting the oldest once the ring is full.
  /// Lock-free; safe from concurrent shard threads.
  void record(const hop_record& r);

  /// Records ever appended (>= snapshot().size(); the difference is
  /// what wraparound discarded).
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Retained records, oldest to newest.
  [[nodiscard]] std::vector<hop_record> snapshot() const;

  /// Retained records for one packet, oldest to newest.
  [[nodiscard]] std::vector<hop_record> packet_life(
      std::uint32_t trace_id) const;

  /// Drop all records and restart trace-id allocation at 1. Must not
  /// run concurrently with record().
  void clear();

 private:
  /// One ring slot: a hop_record stored as three relaxed atomic words
  /// so concurrent writers (distinct tickets) and snapshot readers
  /// never race. kWords * 8 == sizeof(hop_record).
  static constexpr std::size_t kWords = 3;
  struct slot {
    std::atomic<std::uint64_t> w[kWords];
  };

  [[nodiscard]] hop_record load_slot(std::size_t i) const;

  mutable std::mutex m_;  ///< serializes snapshot/clear
  std::unique_ptr<slot[]> slots_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace onfiber::obs
