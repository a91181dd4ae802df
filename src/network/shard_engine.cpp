#include "network/shard_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace onfiber::net {

shard_engine::shard_engine(std::size_t shards, std::size_t channel_capacity)
    : channel_capacity_(channel_capacity) {
  const std::size_t k = shards == 0 ? 1 : shards;
  shards_.reserve(k);
  mailboxes_.reserve(k);
  staging_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    shards_.push_back(std::make_unique<simulator>());
    mailboxes_.push_back(std::make_unique<shard_mailbox>());
  }
  channel_seq_.assign(k * k, 0);
}

shard_engine::~shard_engine() {
  if (workers_started_) {
    ++generation_;
    for (auto& mb : mailboxes_) {
      mb->stop.store(true, std::memory_order_release);
      mb->publish(0.0, generation_);
    }
    for (auto& w : workers_) w.join();
  }
}

void shard_engine::set_lookahead(double lookahead_s) {
  lookahead_s_ = lookahead_s;
}

void shard_engine::schedule_global(double time_s, handler fn) {
  if (shard_count() == 1) {
    // One shard: same queue, same seq stream as the datapath events.
    primary().schedule_at(time_s, std::move(fn));
    return;
  }
  globals_.push(global_event{time_s, next_global_seq_++, std::move(fn)});
}

void shard_engine::emit_parcel(std::uint32_t src_shard,
                               std::uint32_t dst_shard, double time_s,
                               packet&& pkt, std::uint32_t node,
                               std::uint8_t op, packet_event_sink* sink) {
  spsc_channel& ch = channel(src_shard, dst_shard);
  parcel p{time_s, channel_seq_[src_shard * shard_count() + dst_shard]++,
           src_shard, node, op, sink, std::move(pkt)};
  while (!ch.try_push(std::move(p))) {
    // Backpressure: the consumer is busy (or itself blocked pushing to
    // us). Draining our own inbound channels guarantees somebody always
    // makes progress, so a ring of full channels cannot deadlock.
    ++mailboxes_[src_shard]->stalls;
    drain_inbound(src_shard);
    std::this_thread::yield();
  }
}

void shard_engine::drain_inbound(std::size_t dst) {
  const std::size_t k = shard_count();
  auto& staged = staging_[dst];
  parcel p;
  for (std::size_t src = 0; src < k; ++src) {
    if (src == dst) continue;
    while (channel(src, dst).try_pop(p)) staged.push_back(std::move(p));
  }
}

void shard_engine::merge_staged_parcels() {
  const std::size_t k = shard_count();
  for (std::size_t dst = 0; dst < k; ++dst) drain_inbound(dst);
  for (std::size_t dst = 0; dst < k; ++dst) {
    auto& staged = staging_[dst];
    if (staged.empty()) continue;
    // (time, src_shard, seq) is a strict total order over parcels — the
    // merge is a pure function of the schedule, not of which thread won
    // a race somewhere.
    std::sort(staged.begin(), staged.end(),
              [](const parcel& a, const parcel& b) {
                if (a.time_s != b.time_s) return a.time_s < b.time_s;
                if (a.src_shard != b.src_shard)
                  return a.src_shard < b.src_shard;
                return a.seq < b.seq;
              });
    stats_.parcels += staged.size();
    simulator& sim = *shards_[dst];
    for (parcel& p : staged) {
      sim.schedule_packet_at(p.time_s, std::move(p.pkt), p.node, p.op,
                             p.sink);
    }
    staged.clear();
  }
}

double shard_engine::min_pending_time() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& s : shards_) m = std::min(m, s->peek_next_time());
  return m;
}

bool shard_engine::anything_pending() const {
  if (!globals_.empty()) return true;
  for (const auto& s : shards_) {
    if (!s->empty()) return true;
  }
  for (const auto& ch : channels_) {
    if (!ch->empty()) return true;
  }
  return false;
}

void shard_engine::ensure_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  // Channels are only ever touched inside a multi-shard run(), so their
  // rings are allocated here rather than at construction: a 1-shard
  // engine never allocates one.
  const std::size_t k = shard_count();
  channels_.reserve(k * k);
  for (std::size_t i = 0; i < k * k; ++i) {
    channels_.push_back(std::make_unique<spsc_channel>(channel_capacity_));
  }
  workers_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void shard_engine::worker_loop(std::size_t shard_index) {
  shard_mailbox& mb = *mailboxes_[shard_index];
  simulator& sim = *shards_[shard_index];
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t g = mb.await_command(seen);
    seen = g;
    if (mb.stop.load(std::memory_order_acquire)) return;
    mb.executed = sim.run_window(mb.window_end);
    mb.done.store(g, std::memory_order_release);
    // Arrive beat: peers may still be producing into our inbound
    // channels; keep popping so a full-channel producer can unblock.
    while (quiesce_gen_.load(std::memory_order_acquire) != g) {
      drain_inbound(shard_index);
      std::this_thread::yield();
    }
    // Quiesce acknowledged: from here until the next publish the
    // coordinator owns our channels and staging buffer.
    mb.quiesced.store(g, std::memory_order_release);
  }
}

std::uint64_t shard_engine::execute_window(double window_end) {
  ++generation_;
  const std::uint64_t g = generation_;
  for (auto& mb : mailboxes_) mb->publish(window_end, g);
  for (auto& mb : mailboxes_) {
    spin_until([&] { return mb->done.load(std::memory_order_acquire) == g; });
  }
  // Every worker is done, so no parcel can still be produced. Ask the
  // workers to stop draining and hand the channels over.
  quiesce_gen_.store(g, std::memory_order_release);
  for (auto& mb : mailboxes_) {
    spin_until(
        [&] { return mb->quiesced.load(std::memory_order_acquire) == g; });
  }
  merge_staged_parcels();
  std::uint64_t executed = 0;
  for (auto& mb : mailboxes_) executed += mb->executed;
  ++stats_.windows;
  return executed;
}

std::uint64_t shard_engine::run(std::uint64_t max_events) {
  if (shard_count() == 1) {
    // One shard: drain it on the calling thread; the worker machinery
    // is never spun up.
    const std::uint64_t executed = primary().run(max_events);
    overran_ = primary().overran();
    return executed;
  }
  ensure_workers();
  obs::counter* obs_windows = nullptr;
  obs::counter* obs_parcels = nullptr;
  obs::counter* obs_stalls = nullptr;
  std::vector<obs::counter*> obs_shard_events;
  std::vector<obs::gauge*> obs_inbox_depth;
  if (obs::enabled()) {
    auto& reg = obs::registry::global();
    obs_windows = &reg.get_counter("engine.windows");
    obs_parcels = &reg.get_counter("engine.parcels");
    obs_stalls = &reg.get_counter("engine.producer_stalls");
    for (std::size_t i = 0; i < shard_count(); ++i) {
      const std::string tag = "engine.shard" + std::to_string(i);
      obs_shard_events.push_back(&reg.get_counter(tag + ".events"));
      obs_inbox_depth.push_back(&reg.get_gauge(tag + ".inbox_depth"));
    }
  }
  std::uint64_t executed = 0;
  overran_ = false;
  while (executed < max_events) {
    const double m = min_pending_time();
    const double tg = globals_.empty()
                          ? std::numeric_limits<double>::infinity()
                          : globals_.top().time_s;
    if (m == std::numeric_limits<double>::infinity() &&
        tg == std::numeric_limits<double>::infinity()) {
      break;
    }
    if (tg <= m) {
      // Control-plane event: every worker is parked (we are between
      // windows), so the handler may touch any shard's state. Put all
      // shards on a common clock first — a handler scheduling a
      // relative-time follow-up must see the same now() everywhere.
      for (auto& s : shards_) s->advance_to(tg);
      global_event ev = std::move(const_cast<global_event&>(globals_.top()));
      globals_.pop();
      ev.fn();
      ++executed;
      ++stats_.global_events;
      // The handler may have emitted parcels (injection drivers do);
      // fold them in so the next window computation sees them.
      merge_staged_parcels();
      continue;
    }
    const double window_end = std::min(m + lookahead_s_, tg);
    if (!(window_end > m)) {
      throw std::logic_error(
          "shard_engine: lookahead must be positive for multi-shard runs");
    }
    const std::uint64_t before_parcels = stats_.parcels;
    executed += execute_window(window_end);
    if (obs_windows != nullptr) {
      obs_windows->add(1);
      obs_parcels->add(stats_.parcels - before_parcels);
      std::uint64_t stalls = 0;
      for (std::size_t i = 0; i < shard_count(); ++i) {
        obs_shard_events[i]->add(mailboxes_[i]->executed);
        // Channel-depth gauge: the deepest any inbound channel of this
        // shard has ever been (producer-maintained high-watermark).
        std::size_t depth = 0;
        for (std::size_t src = 0; src < shard_count(); ++src) {
          if (src != i) depth = std::max(depth, channel(src, i).max_depth());
        }
        obs_inbox_depth[i]->set(static_cast<double>(depth));
        stalls += mailboxes_[i]->stalls;
      }
      if (stalls > obs_stalls->value()) {
        obs_stalls->add(stalls - obs_stalls->value());
      }
    }
  }
  std::uint64_t stalls = 0;
  for (const auto& mb : mailboxes_) stalls += mb->stalls;
  stats_.producer_stalls = stalls;
  for (const auto& ch : channels_) {
    stats_.max_channel_depth = std::max(stats_.max_channel_depth,
                                        ch->max_depth());
  }
  overran_ = executed >= max_events && anything_pending();
  return executed;
}

}  // namespace onfiber::net
