// simd_kernels_impl.hpp — the one source of truth for the dispatched
// kernel loops. Each simd_kernels_<level>.cpp includes this header and is
// compiled with that level's -m flags; the loops are written as plain
// branch-free element-wise passes so the auto-vectorizer can widen them
// without changing a single result (see the contract in simd.hpp).
//
// Everything here has internal linkage on purpose: four copies of these
// functions exist in the binary, one per ISA, and the tables hand out
// pointers to their own TU's copies.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "photonics/quantize_detail.hpp"
#include "photonics/rng_counter_detail.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot::simd {
namespace {

void fill_normal_kernel(std::uint64_t key, std::uint64_t base, double* out,
                        std::size_t n) {
  // Blocked: uniforms land in a stack buffer so the tail fixup still has
  // them after the central pass overwrites `out`. Both hot passes are
  // branch-free and vectorize. The tail pass (~4.85% of draws) builds a
  // branch-free bitmask of the tail lanes of each 64-draw word and visits
  // only its set bits, calling the shared scalar function, so every ISA
  // produces the same tail bits without a mispredicted branch per draw.
  constexpr std::size_t kBlock = 512;
  double u[kBlock];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = n - done < kBlock ? n - done : kBlock;
    const std::uint64_t b = base + done;
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = detail::counter_uniform_open(key, b + i);
    }
    for (std::size_t i = 0; i < m; ++i) {
      out[done + i] = detail::inv_normal_central(u[i]);
    }
    for (std::size_t word = 0; word < m; word += 64) {
      const std::size_t lanes = m - word < 64 ? m - word : 64;
      const double* uw = u + word;
      std::uint64_t tail = 0;
      for (std::size_t i = 0; i < lanes; ++i) {
        const bool t =
            (uw[i] < detail::kInvNormPLow) | (uw[i] > detail::kInvNormPHigh);
        tail |= static_cast<std::uint64_t>(t) << i;
      }
      for (; tail != 0; tail &= tail - 1) {
        const int i = std::countr_zero(tail);
        out[done + word + i] = detail::inv_normal_tail(uw[i]);
      }
    }
    done += m;
  }
}

void rin_power_kernel(const double* noise, std::size_t n, double base_mw,
                      double sigma_mw, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = base_mw + sigma_mw * noise[i];
    out[i] = p < 0.0 ? 0.0 : p;
  }
}

void dac_pass_kernel(const double* in, const double* noise, std::size_t n,
                     double full_scale, double levels, double sigma,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double q = detail::quantize_bf(in[i], full_scale, levels);
    double o = q + sigma * noise[i];
    o = o < 0.0 ? 0.0 : o;
    o = o > full_scale ? full_scale : o;
    out[i] = o;
  }
}

void adc_pass_kernel(const double* in, const double* noise, std::size_t n,
                     double full_scale, double levels, double sigma,
                     double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::quantize_bf(in[i] + sigma * noise[i], full_scale, levels);
  }
}

void triple_product_kernel(const double* p, const double* a, const double* b,
                           std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = p[i] * a[i] * b[i];
  }
}

void weight_product_kernel(const double* codes, const double* noise,
                           std::size_t n, double full_scale, double sigma,
                           double floor_t, double loss, const double* power_mw,
                           double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    double o = codes[i] + sigma * noise[i];
    o = o < 0.0 ? 0.0 : o;
    o = o > full_scale ? full_scale : o;
    // The DAC clip already holds o >= 0, so the MZM clamp needs only
    // its upper half.
    double c = o > 1.0 ? 1.0 : o;
    c = c < floor_t ? floor_t : c;
    out[i] = power_mw[i] * (c * loss);
  }
}

double blocked_sum_kernel(const double* x, std::size_t n) {
  // Eight independent accumulators, folded in a fixed tree: accumulator j
  // sees x[j], x[8+j], x[16+j], ... in order at every vector width, so
  // scalar, SSE (2 lanes), AVX2 (4) and AVX-512 (8) all round the same.
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) acc[j] += x[i + j];
  }
  for (std::size_t j = 0; i < n; ++i, ++j) acc[j] += x[i];
  const double a01 = acc[0] + acc[1];
  const double a23 = acc[2] + acc[3];
  const double a45 = acc[4] + acc[5];
  const double a67 = acc[6] + acc[7];
  return (a01 + a23) + (a45 + a67);
}

[[maybe_unused]] kernel_table make_kernel_table(level lvl, const char* name) {
  kernel_table t;
  t.lvl = lvl;
  t.name = name;
  t.fill_normal = &fill_normal_kernel;
  t.rin_power = &rin_power_kernel;
  t.dac_pass = &dac_pass_kernel;
  t.adc_pass = &adc_pass_kernel;
  t.triple_product = &triple_product_kernel;
  t.weight_product = &weight_product_kernel;
  t.blocked_sum = &blocked_sum_kernel;
  return t;
}

}  // namespace
}  // namespace onfiber::phot::simd
