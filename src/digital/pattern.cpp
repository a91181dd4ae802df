#include "digital/pattern.hpp"

#include <algorithm>
#include <stdexcept>

namespace onfiber::digital {

aho_corasick::aho_corasick(std::vector<std::vector<std::uint8_t>> patterns)
    : patterns_(std::move(patterns)) {
  for (const auto& p : patterns_) {
    if (p.empty()) {
      throw std::invalid_argument("aho_corasick: empty pattern");
    }
  }
  nodes_.emplace_back();  // root

  // Build the trie.
  for (std::size_t pi = 0; pi < patterns_.size(); ++pi) {
    std::int32_t cur = 0;
    for (std::uint8_t byte : patterns_[pi]) {
      std::int32_t& slot = nodes_[static_cast<std::size_t>(cur)].next[byte];
      if (slot < 0) {
        slot = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      cur = slot;
    }
    nodes_[static_cast<std::size_t>(cur)].output.push_back(pi);
  }

  // BFS to set failure links and convert to a full goto function.
  std::queue<std::int32_t> bfs;
  for (int b = 0; b < 256; ++b) {
    std::int32_t& slot = nodes_[0].next[static_cast<std::size_t>(b)];
    if (slot < 0) {
      slot = 0;
    } else {
      nodes_[static_cast<std::size_t>(slot)].fail = 0;
      bfs.push(slot);
    }
  }
  while (!bfs.empty()) {
    const std::int32_t u = bfs.front();
    bfs.pop();
    const std::int32_t fail_u = nodes_[static_cast<std::size_t>(u)].fail;
    // Merge outputs along the failure chain.
    const auto& fail_out = nodes_[static_cast<std::size_t>(fail_u)].output;
    auto& out = nodes_[static_cast<std::size_t>(u)].output;
    out.insert(out.end(), fail_out.begin(), fail_out.end());
    for (int b = 0; b < 256; ++b) {
      std::int32_t& slot =
          nodes_[static_cast<std::size_t>(u)].next[static_cast<std::size_t>(b)];
      const std::int32_t via_fail =
          nodes_[static_cast<std::size_t>(fail_u)].next[static_cast<std::size_t>(b)];
      if (slot < 0) {
        slot = via_fail;
      } else {
        nodes_[static_cast<std::size_t>(slot)].fail = via_fail;
        bfs.push(slot);
      }
    }
  }
}

std::vector<pattern_hit> aho_corasick::find_all(
    std::span<const std::uint8_t> text) const {
  std::vector<pattern_hit> hits;
  std::int32_t state = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = nodes_[static_cast<std::size_t>(state)].next[text[i]];
    for (std::size_t pi : nodes_[static_cast<std::size_t>(state)].output) {
      hits.push_back(pattern_hit{pi, i + 1});
    }
  }
  return hits;
}

std::vector<pattern_hit> naive_scan(
    std::span<const std::uint8_t> text,
    std::span<const std::vector<std::uint8_t>> patterns) {
  std::vector<pattern_hit> hits;
  for (std::size_t end = 1; end <= text.size(); ++end) {
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const auto& p = patterns[pi];
      if (p.empty() || p.size() > end) continue;
      if (std::equal(p.begin(), p.end(),
                     text.begin() + static_cast<std::ptrdiff_t>(end - p.size()))) {
        hits.push_back(pattern_hit{pi, end});
      }
    }
  }
  return hits;
}

}  // namespace onfiber::digital
