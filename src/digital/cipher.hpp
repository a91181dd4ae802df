// cipher.hpp — digital stream-cipher baseline for the data-encryption use
// case (Table 1, C2).
//
// A ChaCha20-style ARX keystream generator (reduced to a compact,
// dependency-free core). This is the digital comparator; the photonic
// path implements the same keystream XOR with the masking done optically
// (see apps/crypto). Not intended as production cryptography — it is a
// faithful *cost and dataflow* stand-in, which is what the reproduction
// needs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace onfiber::digital {

/// ARX quarter-round based keystream cipher (ChaCha-like, 8 rounds).
class stream_cipher {
 public:
  /// 256-bit key + 64-bit nonce.
  stream_cipher(std::span<const std::uint8_t> key_32bytes,
                std::uint64_t nonce);

  /// XOR the keystream into `data` in place (encrypt == decrypt).
  void apply(std::span<std::uint8_t> data);

  /// Produce `n` keystream bytes (used by the photonic masking path,
  /// which needs the keystream itself to drive the mask modulator).
  [[nodiscard]] std::vector<std::uint8_t> keystream(std::size_t n);

 private:
  void refill();

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_used_ = 64;
  std::uint64_t counter_ = 0;
};

}  // namespace onfiber::digital
