// intrusion_detection.hpp — Table 1, C2: intrusion detection on fiber.
//
// Signature scanning of packet payloads. The photonic path slides each
// byte-aligned window of the payload through the P2 correlator (the
// "photonic regular expression matching hardware" the paper calls for,
// restricted here to exact byte signatures — the same restriction early
// TCAM-based IDS hardware had). The digital baseline is Aho-Corasick,
// which is what software IDS like Pigasus [69] builds on.
#pragma once

#include <cstdint>
#include <vector>

#include "digital/pattern.hpp"
#include "photonics/engine/pattern_matcher.hpp"

namespace onfiber::apps {

/// A detection event.
struct detection {
  std::size_t signature_index = 0;
  std::size_t byte_offset = 0;  ///< offset of the signature's first byte

  friend bool operator==(const detection&, const detection&) = default;
};

/// Photonic signature scanner.
class photonic_ids {
 public:
  photonic_ids(std::vector<std::vector<std::uint8_t>> signatures,
               phot::pattern_match_config config, std::uint64_t seed,
               phot::energy_ledger* ledger = nullptr,
               phot::energy_costs costs = {});

  /// Scan a payload; byte-aligned windows, all signatures per window.
  /// Serial: one analog evaluation per (window, signature).
  [[nodiscard]] std::vector<detection> scan(
      std::span<const std::uint8_t> payload);

  /// Same detections with a parallel correlator bank: all signatures of
  /// one window evaluate concurrently, so analog time per payload is one
  /// evaluation per window (signature count buys area, not time).
  [[nodiscard]] std::vector<detection> scan_parallel(
      std::span<const std::uint8_t> payload);

  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] double analog_time_s() const { return analog_time_s_; }

 private:
  struct prepared {
    std::vector<std::uint8_t> bytes;
    std::vector<phot::tbit> pattern_bits;
  };
  std::vector<prepared> signatures_;
  phot::pattern_matcher matcher_;
  std::uint64_t evaluations_ = 0;
  double analog_time_s_ = 0.0;
};

/// Digital baseline wrapper producing the same `detection` records.
[[nodiscard]] std::vector<detection> digital_ids_scan(
    const digital::aho_corasick& matcher,
    std::span<const std::uint8_t> payload,
    std::span<const std::vector<std::uint8_t>> signatures);

/// Fill `out` with pseudo-random bytes from `seed` (deterministic).
void fill_random_bytes(std::span<std::uint8_t> out, std::uint64_t seed);

/// Plant `signature` into `payload` at `offset` (for IDS ground truth).
/// Throws std::invalid_argument unless the signature fits entirely inside
/// the payload at that offset.
void plant_signature(std::span<std::uint8_t> payload,
                     std::span<const std::uint8_t> signature,
                     std::size_t offset);

/// Deterministic workload: payloads of `payload_bytes` random bytes, with
/// a known signature planted in a `plant_fraction` of them. Returns the
/// payloads and the ground-truth detections per payload.
struct ids_workload {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<detection>> truth;
};
[[nodiscard]] ids_workload make_ids_workload(
    std::span<const std::vector<std::uint8_t>> signatures,
    std::size_t payload_count, std::size_t payload_bytes,
    double plant_fraction, std::uint64_t seed);

/// Recall / precision of `found` against `truth` (exact offset+index).
struct detection_quality {
  double recall = 1.0;
  double precision = 1.0;
};
[[nodiscard]] detection_quality score_detections(
    const std::vector<std::vector<detection>>& truth,
    const std::vector<std::vector<detection>>& found);

}  // namespace onfiber::apps
