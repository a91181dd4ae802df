// address.hpp — IPv4-style addressing and prefixes for the WAN simulator.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace onfiber::net {

/// IPv4 address as a host-order 32-bit integer.
struct ipv4 {
  std::uint32_t value = 0;

  constexpr ipv4() = default;
  explicit constexpr ipv4(std::uint32_t v) : value(v) {}
  constexpr ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                 std::uint8_t d)
      : value((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  auto operator<=>(const ipv4&) const = default;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(value >> 24) + "." +
           std::to_string((value >> 16) & 0xff) + "." +
           std::to_string((value >> 8) & 0xff) + "." +
           std::to_string(value & 0xff);
  }
};

/// CIDR prefix: address/length.
struct prefix {
  ipv4 network{};
  int length = 0;  ///< 0..32

  constexpr prefix() = default;
  constexpr prefix(ipv4 net, int len) : network(net), length(len) {}

  /// Mask with the top `length` bits set.
  [[nodiscard]] constexpr std::uint32_t mask() const {
    return length == 0 ? 0U : ~std::uint32_t{0} << (32 - length);
  }

  /// Does this prefix cover the address?
  [[nodiscard]] constexpr bool contains(ipv4 addr) const {
    return (addr.value & mask()) == (network.value & mask());
  }

  auto operator<=>(const prefix&) const = default;

  [[nodiscard]] std::string to_string() const {
    return network.to_string() + "/" + std::to_string(length);
  }
};

}  // namespace onfiber::net
