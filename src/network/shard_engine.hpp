// shard_engine.hpp — the event engine every fabric runs on: one shard
// by default, or several in parallel with conservative-lookahead
// synchronization.
//
// The topology is partitioned into shards; each shard owns a private
// net::simulator (the pooled-event slab). Shard 0 runs on the thread
// that calls run(); shards 1..K-1 each run on a persistent worker
// thread, so K shards use K - 1 extra threads. Shards advance in
// conservative time windows:
// with lookahead L = the minimum propagation delay over cross-shard
// links, every shard may safely execute all events strictly below
//
//     window_end = min(earliest pending event across all shards) + L
//
// because a packet leaving any shard during the window arrives at its
// neighbor no earlier than that bound (arrival = departure + serialize
// + link delay > departure + L >= global-min + L). Packets crossing a
// boundary ride bounded SPSC channels as (timestamp, source-shard, seq)
// parcels; once every shard has arrived at the window barrier, each
// shard merges its own inbound parcels in (time, src_shard, seq) order
// before scheduling them, so the merge — and with it the whole
// simulation — is a pure function of the schedule, not of thread
// interleaving (see shard_barrier.hpp for the handshake).
//
// Control-plane work (link flaps, reconvergence, workload injection)
// runs as *global events*: the coordinator parks every worker, advances
// all shard clocks to the event time, and executes the handler alone —
// so route tables and link state are only ever written while no shard
// is in flight, and handlers may touch any shard's queue directly.
// Global events at time T execute before local events at T, matching
// the single-engine seq order for setup-scheduled callbacks.
//
// Determinism contract:
//   * shard_count() == 1 — run() simply drains shard 0 on the calling
//     thread and schedule_global() forwards to shard 0's queue: one
//     (time, seq) order over every event, seq tie-breaks included, and
//     no worker thread is ever started.
//   * shard_count() > 1 — per-shard execution order is (time, local
//     seq); cross-shard merges are (time, src_shard, seq). Delivery
//     traces are bit-identical across reruns AND across shard counts as
//     long as no two cross-shard events at *different* nodes carry the
//     exact same double timestamp (tests/test_sharding.cpp pins {1,2,4}
//     on golden traces with exact-double compares).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "network/event_sim.hpp"
#include "network/shard_barrier.hpp"
#include "network/shard_channel.hpp"

namespace onfiber::obs {
class counter;
}  // namespace onfiber::obs

namespace onfiber::net {

/// Engine-level counters (plain members: only the coordinator writes
/// them, between windows, and they are read when quiescent).
struct shard_engine_stats {
  std::uint64_t windows = 0;          ///< conservative windows executed
  std::uint64_t global_events = 0;    ///< control-plane events executed
  std::uint64_t parcels = 0;          ///< cross-shard parcels merged
  std::uint64_t producer_stalls = 0;  ///< pushes that found a full channel
  std::size_t max_channel_depth = 0;  ///< channel high-watermark (<= cap)
};

class shard_engine {
 public:
  using handler = simulator::handler;

  /// `shards` event loops with cross-shard channels of `channel_capacity`
  /// parcels each, allocated with the K - 1 worker threads by the first
  /// multi-shard run(). Shard count is clamped to >= 1.
  explicit shard_engine(std::size_t shards = 1,
                        std::size_t channel_capacity =
                            spsc_channel::kDefaultCapacity);
  ~shard_engine();

  shard_engine(const shard_engine&) = delete;
  shard_engine& operator=(const shard_engine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] simulator& shard(std::size_t i) { return *shards_[i]; }
  /// Shard 0: the clock setup code and global handlers read, and the
  /// queue a 1-shard engine runs on.
  [[nodiscard]] simulator& primary() { return *shards_[0]; }

  /// Conservative lookahead [s]: the minimum cross-shard link delay.
  /// Set by the fabric when it partitions its topology; must be > 0 for
  /// multi-shard runs (a zero-delay cross-shard link would make the
  /// conservative window vacuous).
  void set_lookahead(double lookahead_s);
  [[nodiscard]] double lookahead() const { return lookahead_s_; }

  /// Schedule a control-plane event (or any setup-time callback). With
  /// one shard this is exactly shard(0).schedule_at — same queue, same
  /// seq stream. With several it enters the coordinator's global queue
  /// and executes at a window barrier with every worker parked. Call
  /// only from outside the engine (setup code) or from within another
  /// global handler.
  void schedule_global(double time_s, handler fn);

  /// Cross-shard hop: called by the fabric from the source shard's
  /// thread. Blocks (with backpressure: stalls counted, own inbound
  /// drained to keep the system live) until the channel accepts the
  /// parcel; parcels are never dropped.
  void emit_parcel(std::uint32_t src_shard, std::uint32_t dst_shard,
                   double time_s, packet&& pkt, std::uint32_t node,
                   std::uint8_t op, packet_event_sink* sink);

  /// No-limit sentinel mirroring simulator::unlimited_events.
  static constexpr std::uint64_t unlimited_events =
      simulator::unlimited_events;

  /// Run until every shard queue, every channel, and the global queue
  /// drain (or a coarse `max_events` cap is crossed — checked between
  /// windows). Returns total executed events.
  std::uint64_t run(std::uint64_t max_events = unlimited_events);

  /// Did the last run() stop at its event cap with work still pending?
  [[nodiscard]] bool overran() const { return overran_; }

  [[nodiscard]] const shard_engine_stats& stats() const { return stats_; }

 private:
  struct global_event {
    double time_s = 0.0;
    std::uint64_t seq = 0;
    handler fn;
  };
  struct global_later {
    bool operator()(const global_event& a, const global_event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] spsc_channel& channel(std::size_t src, std::size_t dst) {
    return *channels_[src * shard_count() + dst];
  }

  /// Per-shard window timers, resolved by run() while tracing is on.
  struct shard_timers {
    obs::counter* exec_ns = nullptr;
    obs::counter* wait_ns = nullptr;
    obs::counter* merge_ns = nullptr;
  };

  void ensure_workers();
  void worker_loop(std::size_t shard_index);

  /// Shard `i`'s part of one window, on its own thread: execute below
  /// `window_end`, arrive and wait for the other shards while draining
  /// inbound channels, then merge its own parcels. Fills the shard's
  /// mailbox `executed` and `merged`. noexcept: an event that throws
  /// would leave the other shards waiting at the barrier, so it ends the
  /// program on shard 0's thread as it does on a worker's.
  void run_shard_window(std::size_t i, double window_end,
                        std::uint64_t arrive_target) noexcept;

  /// Pop every parcel from the channels into `dst`'s staging buffer.
  /// Called by `dst`'s own thread (backpressure relief, arrival wait,
  /// merge) or by the coordinator while every worker is parked.
  void drain_inbound(std::size_t dst);

  /// Sort `dst`'s staging buffer by (time, src_shard, seq), schedule
  /// the parcels into `dst`'s queue and empty the buffer. Returns the
  /// number of parcels scheduled.
  std::uint64_t schedule_staged(std::size_t dst);

  /// Coordinator only, workers parked at a global event: drain every
  /// channel and schedule each shard's staged parcels.
  void merge_staged_parcels();

  [[nodiscard]] double min_pending_time() const;
  [[nodiscard]] bool anything_pending() const;

  /// Execute one window across all shards; returns events executed.
  std::uint64_t execute_window(double window_end);

  std::vector<std::unique_ptr<simulator>> shards_;
  std::size_t channel_capacity_;
  std::vector<std::unique_ptr<spsc_channel>> channels_;  // src*K + dst
  std::vector<std::uint64_t> channel_seq_;  ///< per-channel emission seq
  std::vector<std::vector<parcel>> staging_;  ///< per-dst merge buffer

  std::vector<std::unique_ptr<shard_mailbox>> mailboxes_;
  arrival_barrier arrivals_;
  std::uint64_t arrive_target_ = 0;
  std::vector<std::thread> workers_;  ///< shards 1..K-1
  std::vector<shard_timers> timers_;  ///< empty unless tracing
  bool workers_started_ = false;

  std::priority_queue<global_event, std::vector<global_event>, global_later>
      globals_;
  std::uint64_t next_global_seq_ = 0;
  std::uint64_t generation_ = 0;

  double lookahead_s_ = std::numeric_limits<double>::infinity();
  bool overran_ = false;
  /// Cumulative stalls already added to engine.producer_stalls.
  std::uint64_t reported_stalls_ = 0;
  shard_engine_stats stats_;
};

}  // namespace onfiber::net
