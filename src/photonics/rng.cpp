// rng.cpp — compiled-once definitions of the counter-based normal path.
//
// counter_normal lives here (not inline in the header) so exactly one
// bit pattern of the scalar reference exists in the binary: this TU is
// part of the photonics target, which forces -ffp-contract=off, and the
// per-ISA SIMD fills are held to equality against it by
// test_simd_dispatch.cpp.
#include "photonics/rng.hpp"

#include "photonics/rng_counter_detail.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {

double counter_normal(std::uint64_t key, std::uint64_t index) {
  return detail::inv_normal(detail::counter_uniform_open(key, index));
}

void fill_normal_rows(std::span<const std::uint64_t> keys, std::uint64_t base,
                      std::span<double> out) {
  if (keys.empty() || out.empty()) return;
  simd::active().fill_normal(keys.data(), keys.size(), base, out.data(),
                             out.size() / keys.size());
}

void counter_stream::fill_normal(std::span<double> out) {
  fill_normal_rows(std::span(&key_, 1), cursor_, out);
  cursor_ += out.size();
}

}  // namespace onfiber::phot
