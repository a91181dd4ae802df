// golden_digest.hpp — compact fingerprints for committed golden traces.
//
// A golden trace too long to commit entry by entry is pinned as its
// length plus a 64-bit FNV-1a digest over every field of every entry.
// Doubles are folded in by bit pattern, so a one-ULP move of a single
// timestamp changes the digest. Tests print the observed values when
// ONFIBER_REGOLD is set, for re-capture after an intentional change.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/runtime.hpp"

namespace onfiber::golden {

class fnv1a64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_bits(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of a reliability recovery trace: every field of every event.
inline std::uint64_t recovery_digest(
    const std::vector<core::onfiber_runtime::reliability_event>& trace) {
  fnv1a64 d;
  for (const auto& e : trace) {
    d.add(static_cast<std::uint64_t>(e.what));
    d.add(e.task_id);
    d.add_bits(e.time_s);
    d.add(e.site);
  }
  return d.value();
}

/// Dump observed values for re-capture?
inline bool regold_requested() {
  return std::getenv("ONFIBER_REGOLD") != nullptr;
}

/// Shard counts to sweep: {1, 2, 4} plus an optional extra from the
/// ONFIBER_SHARDS environment variable (the CI sharded gates set it).
inline std::vector<std::size_t> shard_count_sweep() {
  std::vector<std::size_t> counts = {1, 2, 4};
  if (const char* env = std::getenv("ONFIBER_SHARDS")) {
    const auto extra = static_cast<std::size_t>(std::atoi(env));
    if (extra > 1 &&
        std::find(counts.begin(), counts.end(), extra) == counts.end()) {
      counts.push_back(extra);
    }
  }
  return counts;
}

}  // namespace onfiber::golden
