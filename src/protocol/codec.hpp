// codec.hpp — fixed-point vector codecs for compute payloads.
//
// Compute inputs and results travel inside packets as bytes; the analog
// engine works on values in [0,1] (intensity) or [-1,1] (signed,
// differential rails). These codecs define the mapping. 8-bit elements
// match the converter resolution assumed throughout (§2.2 compares 8-bit
// MACs).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace onfiber::proto {

/// Encode x in [0,1] as one byte (round-to-nearest).
[[nodiscard]] inline std::uint8_t encode_unit_u8(double x) {
  const double c = std::clamp(x, 0.0, 1.0);
  return static_cast<std::uint8_t>(std::lround(c * 255.0));
}

/// Decode one byte to [0,1].
[[nodiscard]] inline double decode_unit_u8(std::uint8_t b) {
  return static_cast<double>(b) / 255.0;
}

/// Encode x in [-1,1] as one byte (offset binary around 128 with a
/// 1/127 step: 1 -> -1, 128 -> 0, 255 -> +1). The grid is symmetric
/// about an exact zero, so encode/decode is odd in x and 0.0 round-trips
/// exactly — the old (x+1)*127.5 mapping had no code for zero and put a
/// +1/255 DC bias on every differential-rail vector. Byte 0 is never
/// produced (decode clamps it to -1).
[[nodiscard]] inline std::uint8_t encode_signed_u8(double x) {
  const double c = std::clamp(x, -1.0, 1.0);
  return static_cast<std::uint8_t>(128 + std::lround(c * 127.0));
}

/// Decode offset-binary byte to [-1,1].
[[nodiscard]] inline double decode_signed_u8(std::uint8_t b) {
  return std::max(-1.0, (static_cast<double>(b) - 128.0) / 127.0);
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_unit_vector(
    std::span<const double> xs) {
  std::vector<std::uint8_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(encode_unit_u8(x));
  return out;
}

[[nodiscard]] inline std::vector<double> decode_unit_vector(
    std::span<const std::uint8_t> bytes) {
  std::vector<double> out;
  out.reserve(bytes.size());
  for (std::uint8_t b : bytes) out.push_back(decode_unit_u8(b));
  return out;
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_signed_vector(
    std::span<const double> xs) {
  std::vector<std::uint8_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(encode_signed_u8(x));
  return out;
}

[[nodiscard]] inline std::vector<double> decode_signed_vector(
    std::span<const std::uint8_t> bytes) {
  std::vector<double> out;
  out.reserve(bytes.size());
  for (std::uint8_t b : bytes) out.push_back(decode_signed_u8(b));
  return out;
}

}  // namespace onfiber::proto
