// timeline.hpp — per-site utilization / queue-depth timelines.
//
// The runtime appends one sample per compute or batch-flush event at a
// site: simulation time, the site's node id, the batch queue depth at
// that instant, cumulative analog busy time, and utilization (busy time
// over elapsed simulation time). Sampling piggybacks on events that
// already exist — no timers are scheduled, so the timeline cannot
// perturb the simulation. Bounded ring like the tracer.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace onfiber::obs {

struct site_sample {
  double time_s = 0.0;            ///< simulation time of the sample
  std::uint32_t site = 0;         ///< node hosting the engine
  std::uint32_t queue_depth = 0;  ///< packets parked in the site batch
  double busy_s = 0.0;            ///< cumulative analog busy seconds
  double utilization = 0.0;       ///< busy_s / time_s (0 at t == 0)
};

class timeline {
 public:
  static constexpr std::size_t kCapacity = 16384;

  [[nodiscard]] static timeline& global();

  void record(const site_sample& s);
  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Retained samples, oldest to newest.
  [[nodiscard]] std::vector<site_sample> snapshot() const;
  void clear();

 private:
  mutable std::mutex m_;
  std::vector<site_sample> ring_;
  std::uint64_t total_ = 0;
};

inline timeline& timeline::global() {
  static timeline t;
  return t;
}

inline void timeline::record(const site_sample& s) {
  std::lock_guard<std::mutex> lock(m_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(s);
  } else {
    ring_[total_ % kCapacity] = s;
  }
  ++total_;
}

inline std::uint64_t timeline::total_recorded() const {
  std::lock_guard<std::mutex> lock(m_);
  return total_;
}

inline std::vector<site_sample> timeline::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<site_sample> out;
  out.reserve(ring_.size());
  if (total_ <= ring_.size()) {
    out = ring_;
  } else {
    const std::size_t head = total_ % kCapacity;
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

inline void timeline::clear() {
  std::lock_guard<std::mutex> lock(m_);
  ring_.clear();
  total_ = 0;
}

}  // namespace onfiber::obs
