// routing.hpp — longest-prefix-match forwarding tables.
//
// Two implementations with identical semantics:
//   * `routing_table`      — binary trie, the production structure;
//   * `linear_routing_ref` — O(n) scan reference used by property tests
//     to check the trie against first principles.
//
// The table maps prefixes to an opaque value. The fabric's table maps a
// destination prefix to the node that owns it (hops then read the flat
// per-node routes); the runtime's per-primitive compute tables map to a
// next-hop node; the IP-routing use case maps to a next-hop id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "network/address.hpp"

namespace onfiber::net {

/// Binary-trie LPM table mapping prefix -> Value. The trie's nodes live
/// in one arena vector linked by uint32 indices (node 0 is the root, so
/// child index 0 means "no child"): one allocation per table rather than
/// one per bit, and the table copies like a value. An empty table holds
/// no nodes until its first insert.
template <typename Value>
class routing_table {
 public:
  /// Insert/replace the value for a prefix.
  void insert(prefix p, Value v) {
    if (nodes_.empty()) nodes_.emplace_back();
    std::uint32_t cur = 0;
    const std::uint32_t bits = p.network.value & p.mask();
    for (int depth = 0; depth < p.length; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      std::uint32_t child = nodes_[cur].children[bit];
      if (child == 0) {
        child = static_cast<std::uint32_t>(nodes_.size());
        nodes_[cur].children[bit] = child;
        nodes_.emplace_back();
      }
      cur = child;
    }
    nodes_[cur].value = std::move(v);
  }

  /// Remove a prefix's entry (no-op if absent). Returns true if removed.
  bool erase(prefix p) {
    if (nodes_.empty()) return false;
    std::uint32_t cur = 0;
    const std::uint32_t bits = p.network.value & p.mask();
    for (int depth = 0; depth < p.length; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      cur = nodes_[cur].children[bit];
      if (cur == 0) return false;
    }
    const bool had = nodes_[cur].value.has_value();
    nodes_[cur].value.reset();
    return had;
  }

  /// Longest-prefix-match lookup.
  [[nodiscard]] std::optional<Value> lookup(ipv4 addr) const {
    const Value* best = lookup_ptr(addr);
    if (best == nullptr) return std::nullopt;
    return *best;
  }

  /// Non-copying LPM lookup: a pointer into the trie (invalidated by
  /// insert/erase), or nullptr when no prefix matches. The datapath hot
  /// loop uses this to avoid materializing an optional per packet-hop.
  [[nodiscard]] const Value* lookup_ptr(ipv4 addr) const {
    if (nodes_.empty()) return nullptr;
    const trie_node* cur = &nodes_[0];
    const Value* best = cur->value ? &*cur->value : nullptr;
    for (int depth = 0; depth < 32; ++depth) {
      const int bit = (addr.value >> (31 - depth)) & 1;
      const std::uint32_t next = cur->children[bit];
      if (next == 0) break;
      cur = &nodes_[next];
      if (cur->value) best = &*cur->value;
    }
    return best;
  }

  /// Number of stored entries.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        std::count_if(nodes_.begin(), nodes_.end(),
                      [](const trie_node& n) { return n.value.has_value(); }));
  }

 private:
  struct trie_node {
    std::optional<Value> value;
    std::uint32_t children[2] = {0, 0};  ///< arena indices; 0 = none
  };

  std::vector<trie_node> nodes_;
};

/// Reference implementation: linear scan keeping the longest match.
template <typename Value>
class linear_routing_ref {
 public:
  void insert(prefix p, Value v) {
    for (auto& e : entries_) {
      if (e.p == p) {
        e.v = std::move(v);
        return;
      }
    }
    entries_.push_back({p, std::move(v)});
  }

  bool erase(prefix p) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].p == p) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<Value> lookup(ipv4 addr) const {
    const entry* best = nullptr;
    for (const auto& e : entries_) {
      if (e.p.contains(addr) &&
          (best == nullptr || e.p.length > best->p.length)) {
        best = &e;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->v;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct entry {
    prefix p;
    Value v;
  };
  std::vector<entry> entries_;
};

}  // namespace onfiber::net
