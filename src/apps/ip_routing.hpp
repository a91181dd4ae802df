// ip_routing.hpp — Table 1, C2: IP routing via photonic ternary matching.
//
// A router's longest-prefix match is a ternary (TCAM) lookup: prefix bits
// care, suffix bits are wildcards. TCAMs are the power-hungry part of a
// line card (§4: "Current Bottleneck(s): Power hungry"). This app builds
// the photonic equivalent on P2: one ternary pattern per prefix, searched
// in decreasing prefix-length order so the first hit IS the longest
// match. The digital baseline is the binary trie from src/network.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "network/address.hpp"
#include "network/routing.hpp"
#include "photonics/engine/pattern_matcher.hpp"

namespace onfiber::apps {

/// One forwarding entry.
struct fib_entry {
  net::prefix dst{};
  std::uint32_t next_hop = 0;  ///< opaque next-hop identifier
};

/// Photonic LPM engine: P2 ternary patterns in longest-first priority.
class photonic_fib {
 public:
  photonic_fib(std::vector<fib_entry> entries,
               phot::pattern_match_config config, std::uint64_t seed,
               phot::energy_ledger* ledger = nullptr,
               phot::energy_costs costs = {});

  /// Longest-prefix match; nullopt if no entry covers the address.
  /// Serial priority search: one analog evaluation per pattern until the
  /// first (longest) hit.
  [[nodiscard]] std::optional<std::uint32_t> lookup(net::ipv4 addr);

  /// Same semantics with a parallel correlator bank (one correlator per
  /// entry, TCAM-style): every pattern is evaluated concurrently, so the
  /// analog time per lookup is a single evaluation regardless of FIB
  /// size — at the FIB size times the chip area (see photonics/area).
  [[nodiscard]] std::optional<std::uint32_t> lookup_parallel(net::ipv4 addr);

  /// Analog evaluations performed so far (one per pattern tried).
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }

  /// Total analog time spent matching [s].
  [[nodiscard]] double analog_time_s() const { return analog_time_s_; }

 private:
  struct prepared {
    fib_entry entry;
    std::vector<phot::tbit> pattern;  ///< 32 ternary bits
  };

  std::vector<prepared> entries_;  ///< sorted longest prefix first
  phot::pattern_matcher matcher_;
  std::uint64_t evaluations_ = 0;
  double analog_time_s_ = 0.0;
};

/// Expand an address into 32 bits (MSB first).
[[nodiscard]] std::vector<std::uint8_t> address_bits(net::ipv4 addr);

/// Expand a prefix into a 32-slot ternary pattern.
[[nodiscard]] std::vector<phot::tbit> prefix_pattern(net::prefix p);

/// Deterministic synthetic FIB: `n` prefixes of assorted lengths with
/// distinct next hops, plus a default route if `with_default`.
[[nodiscard]] std::vector<fib_entry> make_synthetic_fib(std::size_t n,
                                                        std::uint64_t seed,
                                                        bool with_default = true);

/// Build the trie baseline from the same entries.
[[nodiscard]] net::routing_table<std::uint32_t> make_trie_fib(
    const std::vector<fib_entry>& entries);

}  // namespace onfiber::apps
