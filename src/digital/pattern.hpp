// pattern.hpp — digital pattern-matching baselines.
//
// Baselines for the C2 use cases built on P2:
//   * `aho_corasick`   — multi-pattern byte matcher (the IDS baseline;
//     what software like Snort/Pigasus [69] builds on);
//   * `naive_scan`     — memcmp-at-every-offset reference for tests;
// plus lookup-cost accounting against `asic_model`/`device_model`.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <string>
#include <vector>

namespace onfiber::digital {

/// A match hit: which pattern, at which end offset.
struct pattern_hit {
  std::size_t pattern_index = 0;
  std::size_t end_offset = 0;  ///< offset one past the last matched byte

  friend bool operator==(const pattern_hit&, const pattern_hit&) = default;
};

/// Classic Aho-Corasick automaton over bytes.
class aho_corasick {
 public:
  /// Build from a set of non-empty patterns.
  explicit aho_corasick(std::vector<std::vector<std::uint8_t>> patterns);

  /// All hits in `text`, in increasing end_offset order.
  [[nodiscard]] std::vector<pattern_hit> find_all(
      std::span<const std::uint8_t> text) const;

 private:
  struct node {
    std::vector<std::int32_t> next;  ///< 256-way transitions (built dense)
    std::int32_t fail = 0;
    std::vector<std::size_t> output;  ///< pattern indices ending here
    node() : next(256, -1) {}
  };

  std::vector<node> nodes_;
  std::vector<std::vector<std::uint8_t>> patterns_;
};

/// Reference matcher: test every offset with memcmp semantics.
[[nodiscard]] std::vector<pattern_hit> naive_scan(
    std::span<const std::uint8_t> text,
    std::span<const std::vector<std::uint8_t>> patterns);

}  // namespace onfiber::digital
