// event_sim.hpp — minimal deterministic discrete-event simulator.
//
// Single-threaded, strictly ordered by (time, sequence-number) so runs are
// bit-reproducible. Everything in the WAN model — link propagation,
// transponder processing, controller reconfiguration — is an event.
//
// Two event representations share one (time, seq) order:
//   * typed packet-hop events carry a net::packet inline in a pool-backed,
//     free-listed record and dispatch through a packet_event_sink — the
//     datapath hot loop, zero heap allocations per hop at steady state;
//   * std::function callbacks for everything else (timers, flaps,
//     reconvergence), unchanged from the seed engine.
// The queue is a binary min-heap of 16-byte entries: the time's bit
// pattern, then seq << 24 | record-index. Non-negative doubles order
// like their bit patterns and seq is unique, so comparing the two words
// as unsigned integers is exactly the (time, seq) order — and heap sifts
// never move packet payloads or closures. Scheduled times are clamped to
// now() (past times, -0.0 and NaN included), which keeps every key valid.
// One simulator holds at most 2^24 pending events and schedules at most
// 2^40 over its lifetime; past either limit scheduling throws
// std::length_error.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "network/packet.hpp"

namespace onfiber::net {

/// Receiver of typed packet-hop events. `op` is an opaque discriminator
/// owned by the sink (the fabric uses it to distinguish arrivals from
/// re-injections).
class packet_event_sink {
 public:
  virtual void on_packet_event(std::uint8_t op, packet&& pkt,
                               std::uint32_t node) = 0;

 protected:
  ~packet_event_sink() = default;
};

class simulator {
 public:
  using handler = std::function<void()>;

  /// Current simulation time [s].
  [[nodiscard]] double now() const { return now_s_; }

  /// Schedule `fn` to run at now() + delay_s. Requires delay_s >= 0.
  void schedule(double delay_s, handler fn) {
    schedule_at(now_s_ + (delay_s < 0.0 ? 0.0 : delay_s), std::move(fn));
  }

  /// Schedule `fn` at an absolute time (clamped to now(); NaN runs at
  /// now() too).
  void schedule_at(double time_s, handler fn) {
    const std::uint32_t idx = acquire_record();
    event_record& rec = records_[idx];
    rec.fn = std::move(fn);
    rec.sink = nullptr;
    push_entry(time_s, idx);
  }

  /// Schedule a typed packet-hop event at an absolute time (clamped to
  /// now()): at `time_s`, `sink->on_packet_event(op, pkt, node)` runs. The
  /// packet is carried inline in a recycled record — no allocation once
  /// the pool is warm.
  void schedule_packet_at(double time_s, packet&& pkt, std::uint32_t node,
                          std::uint8_t op, packet_event_sink* sink) {
    const std::uint32_t idx = acquire_record();
    event_record& rec = records_[idx];
    rec.pkt = std::move(pkt);
    rec.sink = sink;
    rec.node = node;
    rec.op = op;
    push_entry(time_s, idx);
  }

  /// Relative-time variant of schedule_packet_at.
  void schedule_packet(double delay_s, packet&& pkt, std::uint32_t node,
                       std::uint8_t op, packet_event_sink* sink) {
    schedule_packet_at(now_s_ + (delay_s < 0.0 ? 0.0 : delay_s),
                       std::move(pkt), node, op, sink);
  }

  /// No-limit sentinel for run()/run_until().
  static constexpr std::uint64_t unlimited_events = ~std::uint64_t{0};

  /// Run until the event queue drains, or until `max_events` handlers
  /// have executed. Returns the executed event count. A handler that
  /// unconditionally self-reschedules (retry timers make this easy to
  /// write) would otherwise spin run() forever; with a cap the call
  /// returns early and `overran()` reports the runaway so a test binary
  /// fails loudly instead of hanging.
  std::uint64_t run(std::uint64_t max_events = unlimited_events) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && executed < max_events) {
      step();
      ++executed;
    }
    overran_ = !heap_.empty() && executed >= max_events;
    return executed;
  }

  /// Did the last run()/run_until() stop at its event cap with eligible
  /// work still queued?
  [[nodiscard]] bool overran() const { return overran_; }

  /// Run until the queue drains, simulated time exceeds `until_s`, or
  /// `max_events` handlers have executed. Like run(), refreshes
  /// overran(): a prior capped run() no longer leaves a phantom overrun
  /// behind once this call drains the eligible work.
  std::uint64_t run_until(double until_s,
                          std::uint64_t max_events = unlimited_events) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && top_time() <= until_s &&
           executed < max_events) {
      step();
      ++executed;
    }
    overran_ = !heap_.empty() && top_time() <= until_s &&
               executed >= max_events;
    if (now_s_ < until_s) now_s_ = until_s;
    return executed;
  }

  /// One conservative time window (shard_engine): execute every event
  /// with time strictly below `end_s`. Unlike run_until, the bound is
  /// exclusive — events *at* end_s belong to the next window, after the
  /// cross-shard merge — and now() is left at the last executed event,
  /// not advanced to the bound (the engine advances idle shards
  /// explicitly when a global event needs a common clock).
  std::uint64_t run_window(double end_s,
                           std::uint64_t max_events = unlimited_events) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && top_time() < end_s &&
           executed < max_events) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Timestamp of the earliest pending event, or +infinity when idle.
  /// The shard engine's window computation reads this while the shard's
  /// worker is parked at the barrier.
  [[nodiscard]] double peek_next_time() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : top_time();
  }

  /// Move the clock forward to `time_s` (never backward). Used by the
  /// shard engine to put every shard on a common clock before a global
  /// (control-plane) event executes.
  void advance_to(double time_s) {
    if (time_s > now_s_) now_s_ = time_s;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t npos = ~std::uint32_t{0};
  static constexpr unsigned record_bits = 24;
  static constexpr std::uint64_t record_mask =
      (std::uint64_t{1} << record_bits) - 1;
  /// Live-record and lifetime-event limits of the 16-byte heap key.
  static constexpr std::size_t max_records = std::size_t{1} << record_bits;
  static constexpr std::uint64_t max_events = std::uint64_t{1} << 40;

  /// Event payloads live out-of-heap in a free-listed slab; the heap
  /// orders lightweight references to them.
  struct event_record {
    handler fn;                        // callback events (sink == nullptr)
    packet pkt;                        // typed packet-hop payload
    packet_event_sink* sink = nullptr; // non-null marks a typed event
    std::uint32_t node = 0;
    std::uint8_t op = 0;
    std::uint32_t next_free = npos;
  };

  /// (time, seq) packed as two unsigned words: `time_bits` is the bit
  /// pattern of a non-negative, non-NaN time, `key` is seq << 24 |
  /// record index.
  struct heap_entry {
    std::uint64_t time_bits;
    std::uint64_t key;
  };

  /// Strict (time, seq) order. Branch-free: the heap compares on every
  /// level of every sift.
  static bool before(const heap_entry& a, const heap_entry& b) {
    return (a.time_bits < b.time_bits) |
           ((a.time_bits == b.time_bits) & (a.key < b.key));
  }

  [[nodiscard]] double top_time() const {
    return std::bit_cast<double>(heap_.front().time_bits);
  }

  std::uint32_t acquire_record() {
    // Every acquired record is pushed exactly once, with the next seq.
    if (next_seq_ >= max_events) {
      throw std::length_error("simulator: 2^40 events scheduled");
    }
    if (free_head_ != npos) {
      const std::uint32_t idx = free_head_;
      free_head_ = records_[idx].next_free;
      records_[idx].next_free = npos;
      return idx;
    }
    if (records_.size() >= max_records) {
      throw std::length_error("simulator: 2^24 events pending");
    }
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  void release_record(std::uint32_t idx) {
    records_[idx].next_free = free_head_;
    free_head_ = idx;
  }

  void push_entry(double time_s, std::uint32_t idx) {
    // Also catches NaN and -0.0: the key needs a non-negative time.
    if (!(time_s > now_s_)) time_s = now_s_;
    heap_.push_back({});
    sift_up(heap_.size() - 1,
            heap_entry{std::bit_cast<std::uint64_t>(time_s),
                       (next_seq_++ << record_bits) | idx});
  }

  /// Place `e` at `hole` or above it, moving larger parents down.
  void sift_up(std::size_t hole, heap_entry e) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  /// Remove the top entry (Floyd): walk the root hole down to a leaf
  /// along the smaller children, then sift the last entry up into it.
  void pop_top() {
    const heap_entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(before(heap_[child + 1], heap_[child]));
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      heap_[hole] = heap_[child];
      hole = child;
    }
    sift_up(hole, last);
  }

  void step() {
    const heap_entry top = heap_.front();
    pop_top();
    now_s_ = std::bit_cast<double>(top.time_bits);
    const auto idx = static_cast<std::uint32_t>(top.key & record_mask);
    event_record& rec = records_[idx];
    if (rec.sink != nullptr) {
      // Move the payload out and release the record before dispatching:
      // the sink will schedule the next hop, reusing this very slot.
      packet pkt = std::move(rec.pkt);
      packet_event_sink* sink = rec.sink;
      const std::uint32_t node = rec.node;
      const std::uint8_t op = rec.op;
      rec.sink = nullptr;
      release_record(idx);
      sink->on_packet_event(op, std::move(pkt), node);
    } else {
      handler fn = std::move(rec.fn);
      release_record(idx);
      fn();
    }
  }

  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool overran_ = false;
  std::vector<event_record> records_;
  std::uint32_t free_head_ = npos;
  std::vector<heap_entry> heap_;  ///< binary min-heap under before()
};

}  // namespace onfiber::net
