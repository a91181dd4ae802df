// shard_barrier.hpp — the window handshake between the coordinator and
// the shard workers.
//
// Shard 0 runs on the coordinator (the thread that called run());
// shards 1..K-1 each run on a persistent worker. One conservative time
// window is:
//
//   1. publish — the coordinator writes the window bound and the
//                window's arrival target into each worker's mailbox and
//                bumps its command generation (workers wake via atomic
//                notify);
//   2. execute — every shard, shard 0 included, drains its local event
//                queue strictly below the bound, pushing cross-shard
//                parcels;
//   3. arrive  — a finished shard adds itself to the arrival barrier,
//                then keeps *draining its inbound channels* until all K
//                shards have arrived: a producer stalled on a full
//                channel can only make progress if its consumer keeps
//                popping, so the wait loop is where backpressure
//                liveness comes from;
//   4. merge   — once all K have arrived no parcel can still be
//                produced, so each shard final-drains its own inbound
//                channels, sorts its staging buffer by (time, src_shard,
//                seq), schedules it into its own queue, and (a worker)
//                sets its done flag. The coordinator waits on the done
//                flags before it computes the next window.
//
// A window therefore costs one publish, one arrival barrier and one done
// flag per worker. Every beat is a generation-numbered acquire/release
// atomic — no locks anywhere near the per-window path.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace onfiber::net {

/// Per-worker mailbox for the window handshake. Cache-line separated so
/// workers never false-share their progress counters.
struct alignas(64) shard_mailbox {
  /// Window bound and arrival target, valid for command generation
  /// `cmd`. Written by the coordinator strictly before the cmd store
  /// that publishes them.
  double window_end = 0.0;
  std::uint64_t arrive_target = 0;
  std::atomic<std::uint64_t> cmd{0};   ///< coordinator -> worker
  std::atomic<std::uint64_t> done{0};  ///< worker -> coordinator
  std::atomic<bool> stop{false};

  /// Events the shard executed in the window it just reported done.
  std::uint64_t executed = 0;
  /// Parcels the shard merged into its own queue in that window.
  std::uint64_t merged = 0;
  /// Full-channel push retries this shard has suffered (cumulative).
  /// Plain field: only the owning shard writes it during a window, and
  /// the coordinator reads it after the done handshake (or writes it
  /// itself while every worker is parked at a global event).
  std::uint64_t stalls = 0;

  void publish(double end_s, std::uint64_t target, std::uint64_t generation) {
    window_end = end_s;
    arrive_target = target;
    cmd.store(generation, std::memory_order_release);
    cmd.notify_one();
  }

  /// Worker blocks here between windows (futex wait, no spinning while
  /// the engine is idle between run() calls).
  std::uint64_t await_command(std::uint64_t last_seen) const {
    std::uint64_t g = cmd.load(std::memory_order_acquire);
    while (g == last_seen) {
      cmd.wait(last_seen, std::memory_order_acquire);
      g = cmd.load(std::memory_order_acquire);
    }
    return g;
  }
};

/// Generation-counted arrival barrier: each of the K shards arrives
/// exactly once per window, so window n (counted from 1) is complete
/// when the count reaches n * K. The count never resets. The arrivals
/// form one release sequence, so a shard that sees the target also sees
/// every parcel pushed before any arrival.
struct alignas(64) arrival_barrier {
  std::atomic<std::uint64_t> arrived{0};

  void arrive() { arrived.fetch_add(1, std::memory_order_acq_rel); }
  [[nodiscard]] bool complete(std::uint64_t target) const {
    return arrived.load(std::memory_order_acquire) >= target;
  }
};

/// Spin until `pred()` holds, yielding after a burst of pause-loops so a
/// short wait stays on-core and a long one cedes the CPU.
template <class Pred>
inline void spin_until(Pred&& pred) {
  for (std::uint32_t spins = 0; !pred(); ++spins) {
    if (spins < 64) continue;
    std::this_thread::yield();
  }
}

}  // namespace onfiber::net
