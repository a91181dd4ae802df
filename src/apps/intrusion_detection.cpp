#include "apps/intrusion_detection.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "photonics/rng.hpp"

namespace onfiber::apps {

photonic_ids::photonic_ids(std::vector<std::vector<std::uint8_t>> signatures,
                           phot::pattern_match_config config,
                           std::uint64_t seed, phot::energy_ledger* ledger,
                           phot::energy_costs costs)
    : matcher_(config, seed, ledger, costs) {
  if (signatures.empty()) {
    throw std::invalid_argument("photonic_ids: no signatures");
  }
  signatures_.reserve(signatures.size());
  for (auto& s : signatures) {
    if (s.empty()) {
      throw std::invalid_argument("photonic_ids: empty signature");
    }
    prepared p;
    const auto bits = phot::bytes_to_bits(s);
    p.pattern_bits = phot::to_ternary(bits);
    p.bytes = std::move(s);
    signatures_.push_back(std::move(p));
  }
}

std::vector<detection> photonic_ids::scan(
    std::span<const std::uint8_t> payload) {
  std::vector<detection> out;
  const std::vector<std::uint8_t> payload_bits = phot::bytes_to_bits(payload);
  for (std::size_t si = 0; si < signatures_.size(); ++si) {
    const prepared& sig = signatures_[si];
    if (sig.bytes.size() > payload.size()) continue;
    const std::size_t window_bits = sig.bytes.size() * 8;
    for (std::size_t off = 0; off + sig.bytes.size() <= payload.size();
         ++off) {
      const auto window = std::span<const std::uint8_t>(payload_bits)
                              .subspan(off * 8, window_bits);
      const phot::match_result m =
          matcher_.match_ternary(window, sig.pattern_bits);
      ++evaluations_;
      analog_time_s_ += m.latency_s;
      if (m.matched) out.push_back(detection{si, off});
    }
  }
  std::sort(out.begin(), out.end(), [](const detection& a, const detection& b) {
    if (a.byte_offset != b.byte_offset) return a.byte_offset < b.byte_offset;
    return a.signature_index < b.signature_index;
  });
  return out;
}

std::vector<detection> photonic_ids::scan_parallel(
    std::span<const std::uint8_t> payload) {
  std::vector<detection> out;
  const std::vector<std::uint8_t> payload_bits = phot::bytes_to_bits(payload);
  std::size_t max_sig_bytes = 0;
  for (const prepared& sig : signatures_) {
    max_sig_bytes = std::max(max_sig_bytes, sig.bytes.size());
  }
  for (std::size_t off = 0; off < payload.size(); ++off) {
    double slowest = 0.0;
    bool any = false;
    for (std::size_t si = 0; si < signatures_.size(); ++si) {
      const prepared& sig = signatures_[si];
      if (off + sig.bytes.size() > payload.size()) continue;
      const auto window = std::span<const std::uint8_t>(payload_bits)
                              .subspan(off * 8, sig.bytes.size() * 8);
      const phot::match_result m =
          matcher_.match_ternary(window, sig.pattern_bits);
      ++evaluations_;
      any = true;
      slowest = std::max(slowest, m.latency_s);
      if (m.matched) out.push_back(detection{si, off});
    }
    if (any) analog_time_s_ += slowest;  // bank fires concurrently
  }
  std::sort(out.begin(), out.end(), [](const detection& a, const detection& b) {
    if (a.byte_offset != b.byte_offset) return a.byte_offset < b.byte_offset;
    return a.signature_index < b.signature_index;
  });
  return out;
}

std::vector<detection> digital_ids_scan(
    const digital::aho_corasick& matcher,
    std::span<const std::uint8_t> payload,
    std::span<const std::vector<std::uint8_t>> signatures) {
  std::vector<detection> out;
  for (const auto& hit : matcher.find_all(payload)) {
    out.push_back(detection{
        hit.pattern_index,
        hit.end_offset - signatures[hit.pattern_index].size()});
  }
  std::sort(out.begin(), out.end(), [](const detection& a, const detection& b) {
    if (a.byte_offset != b.byte_offset) return a.byte_offset < b.byte_offset;
    return a.signature_index < b.signature_index;
  });
  return out;
}

void fill_random_bytes(std::span<std::uint8_t> out, std::uint64_t seed) {
  phot::rng gen(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(gen.below(256));
}

void plant_signature(std::span<std::uint8_t> payload,
                     std::span<const std::uint8_t> signature,
                     std::size_t offset) {
  // Written so that no sum can wrap: offset + size overflows at SIZE_MAX.
  if (offset > payload.size() ||
      signature.size() > payload.size() - offset) {
    throw std::invalid_argument("plant_signature: signature out of bounds");
  }
  std::copy(signature.begin(), signature.end(), payload.begin() +
            static_cast<std::ptrdiff_t>(offset));
}

ids_workload make_ids_workload(
    std::span<const std::vector<std::uint8_t>> signatures,
    std::size_t payload_count, std::size_t payload_bytes,
    double plant_fraction, std::uint64_t seed) {
  if (signatures.empty()) {
    throw std::invalid_argument("make_ids_workload: no signatures");
  }
  phot::rng gen(seed);
  ids_workload w;
  w.payloads.reserve(payload_count);
  w.truth.reserve(payload_count);

  // Ground truth computed with the exact reference matcher so accidental
  // occurrences in the random filler are also counted.
  const std::vector<std::vector<std::uint8_t>> sigs(signatures.begin(),
                                                    signatures.end());

  for (std::size_t i = 0; i < payload_count; ++i) {
    std::vector<std::uint8_t> payload(payload_bytes);
    fill_random_bytes(payload, gen());
    if (gen.uniform() < plant_fraction) {
      const std::size_t si = gen.below(sigs.size());
      if (sigs[si].size() <= payload.size()) {
        const std::size_t max_off = payload.size() - sigs[si].size();
        plant_signature(payload, sigs[si], gen.below(max_off + 1));
      }
    }
    std::vector<detection> truth;
    for (const auto& hit : digital::naive_scan(payload, sigs)) {
      truth.push_back(detection{hit.pattern_index,
                                hit.end_offset - sigs[hit.pattern_index].size()});
    }
    std::sort(truth.begin(), truth.end(),
              [](const detection& a, const detection& b) {
                if (a.byte_offset != b.byte_offset) {
                  return a.byte_offset < b.byte_offset;
                }
                return a.signature_index < b.signature_index;
              });
    w.payloads.push_back(std::move(payload));
    w.truth.push_back(std::move(truth));
  }
  return w;
}

detection_quality score_detections(
    const std::vector<std::vector<detection>>& truth,
    const std::vector<std::vector<detection>>& found) {
  if (truth.size() != found.size()) {
    throw std::invalid_argument("score_detections: size mismatch");
  }
  std::size_t truth_total = 0, found_total = 0, correct = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    truth_total += truth[i].size();
    found_total += found[i].size();
    std::set<std::pair<std::size_t, std::size_t>> t;
    for (const auto& d : truth[i]) t.insert({d.signature_index, d.byte_offset});
    for (const auto& d : found[i]) {
      if (t.count({d.signature_index, d.byte_offset}) != 0) ++correct;
    }
  }
  detection_quality q;
  q.recall = truth_total == 0
                 ? 1.0
                 : static_cast<double>(correct) /
                       static_cast<double>(truth_total);
  q.precision = found_total == 0
                    ? 1.0
                    : static_cast<double>(correct) /
                          static_cast<double>(found_total);
  return q;
}

}  // namespace onfiber::apps
