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
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "photonics/quantize_detail.hpp"
#include "photonics/rng_counter_detail.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot::simd {
namespace {

void fill_normal_kernel(const std::uint64_t* keys, std::size_t rows,
                        std::uint64_t base, double* out, std::size_t n) {
  // Rows pack back to back into 512-draw blocks, so many short rows share
  // one block's passes. Uniforms are drawn row by row with that row's key
  // held constant (a per-lane key gather measured slower) into a stack
  // buffer, so the tail fixup still has them after the central pass
  // overwrites `out`. Both hot passes are branch-free and vectorize. The
  // tail pass (~4.85% of draws) builds a branch-free bitmask of the tail
  // lanes of each 64-draw word and visits only its set bits, taking the
  // shared scalar std::log of each into a packed array; the sqrt and the
  // tail rational then run as one pass over the packed lanes, off the
  // log's dependency chain. Every step is inv_normal_tail's arithmetic in
  // its order, so every ISA produces the same tail bits without a
  // mispredicted branch per draw.
  constexpr std::size_t kBlock = 512;
  double u[kBlock];
  double tail_log[kBlock];        // per packed tail lane: log, then x
  std::uint32_t tail_at[kBlock];  // its lane in the block
  const std::size_t total = rows * n;
  std::size_t row = 0;
  std::size_t index = 0;  // draw index within `row`, from base
  for (std::size_t done = 0; done < total;) {
    const std::size_t m = total - done < kBlock ? total - done : kBlock;
    for (std::size_t j = 0; j < m;) {
      const std::size_t run = n - index < m - j ? n - index : m - j;
      const std::uint64_t key = keys[row];
      const std::uint64_t b = base + index;
      for (std::size_t i = 0; i < run; ++i) {
        u[j + i] = detail::counter_uniform_open(key, b + i);
      }
      j += run;
      index += run;
      if (index == n) {
        index = 0;
        ++row;
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      out[done + i] = detail::inv_normal_central(u[i]);
    }
    std::size_t tails = 0;
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
        const std::size_t i = word + std::countr_zero(tail);
        const double p = u[i];
        tail_log[tails] = std::log(p > 0.5 ? 1.0 - p : p);
        tail_at[tails++] = static_cast<std::uint32_t>(i);
      }
    }
    for (std::size_t t = 0; t < tails; ++t) {
      tail_log[t] =
          detail::inv_normal_tail_rational(std::sqrt(-2.0 * tail_log[t]));
    }
    for (std::size_t t = 0; t < tails; ++t) {
      const std::size_t i = tail_at[t];
      out[done + i] = u[i] > 0.5 ? -tail_log[t] : tail_log[t];
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

void weight_product_kernel(const double* drive, std::size_t n, double floor_t,
                           double loss, const double* power_mw, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    // A DAC output is >= 0, so the MZM clamp needs only its upper half.
    double c = drive[i] > 1.0 ? 1.0 : drive[i];
    c = c < floor_t ? floor_t : c;
    out[i] = power_mw[i] * (c * loss);
  }
}

/// The fixed fold of eight accumulators.
inline double fold8(const double* acc) {
  const double a01 = acc[0] + acc[1];
  const double a23 = acc[2] + acc[3];
  const double a45 = acc[4] + acc[5];
  const double a67 = acc[6] + acc[7];
  return (a01 + a23) + (a45 + a67);
}

void blocked_sums_kernel(const double* x, std::size_t n, std::size_t count,
                         double* out) {
  // Per readout, eight independent accumulators folded in a fixed tree:
  // accumulator j sees x[j], x[8+j], x[16+j], ... in order at every
  // vector width, so scalar, SSE (2 lanes), AVX2 (4) and AVX-512 (8) all
  // round the same.
  for (std::size_t k = 0; k < count; ++k) {
    const double* xk = x + k * n;
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      for (std::size_t j = 0; j < 8; ++j) acc[j] += xk[i + j];
    }
    for (std::size_t j = 0; i < n; ++i, ++j) acc[j] += xk[i];
    out[k] = fold8(acc);
  }
}

/// Eight doubles as one generic vector: one zmm at AVX-512, two ymm at
/// AVX2, SSE pairs below (the scalar tier included: its flags switch off
/// only the auto-vectorizer). Its operations are element-wise IEEE
/// arithmetic, so lane j rounds exactly as a scalar accumulator would,
/// at every tier.
using lanes8 = double __attribute__((vector_size(64)));

inline void load8(lanes8& v, const double* p) { std::memcpy(&v, p, sizeof v); }

/// moment_sums over readouts of n symbols, the variance's third term
/// only when `kThird`. Each block's eight accumulator updates are one
/// vector operation: left to the auto-vectorizer, the loop interleaves
/// eight blocks and shuffles them back, at 7x the instructions.
template <bool kThird>
void moment_sums_of(const double* wm, const double* xm, const double* wv,
                    const double* xv, const double* wh, const double* xh,
                    std::size_t n, std::size_t count, double* mean,
                    double* var) {
  // The accumulators of the mean and of the variance are independent
  // chains, eight each, in blocked_sums' order.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t o = k * n;
    lanes8 am = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    lanes8 av = am;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      lanes8 a, b, c, d;
      load8(a, wm + o + i);
      load8(b, xm + o + i);
      load8(c, wv + o + i);
      load8(d, xv + o + i);
      lanes8 v = c * d;
      if constexpr (kThird) {
        lanes8 e, f;
        load8(e, wh + o + i);
        load8(f, xh + o + i);
        v += e * f;
      }
      am += a * b;
      av += v;
    }
    for (std::size_t j = 0; i < n; ++i, ++j) {
      double v = wv[o + i] * xv[o + i];
      if constexpr (kThird) v += wh[o + i] * xh[o + i];
      am[j] += wm[o + i] * xm[o + i];
      av[j] += v;
    }
    double acc[8];
    std::memcpy(acc, &am, sizeof acc);
    mean[k] = fold8(acc);
    std::memcpy(acc, &av, sizeof acc);
    var[k] = fold8(acc);
  }
}

void moment_sums_kernel(const double* wm, const double* xm, const double* wv,
                        const double* xv, const double* wh, const double* xh,
                        std::size_t n, std::size_t count, double* mean,
                        double* var) {
  if (wh == nullptr) {
    moment_sums_of<false>(wm, xm, wv, xv, wh, xh, n, count, mean, var);
  } else {
    moment_sums_of<true>(wm, xm, wv, xv, wh, xh, n, count, mean, var);
  }
}

void readout_currents_kernel(const double* sums, const double* noise,
                             std::size_t count, double symbols,
                             double responsivity, double dark_a, bool shot,
                             double two_q, double bandwidth_hz,
                             double thermal_var, double saturation_a,
                             double* out) {
  // Every step is the scalar chain's arithmetic in its order; its
  // branches are selects, so sqrt runs on every lane and the loop
  // vectorizes. The variance is never negative, so neither sqrt sees a
  // negative argument.
  for (std::size_t k = 0; k < count; ++k) {
    const double signal = responsivity * (sums[k] / symbols) * 1e-3 + dark_a;
    const double i = signal < 0.0 ? -signal : signal;
    const double s = std::sqrt(two_q * i * bandwidth_hz);
    const double variance = (shot ? s * s : 0.0) + thermal_var;
    const double sd = std::sqrt(variance);
    const double draw = noise[k];  // loaded on every lane, used on some
    const double current = signal + (variance <= 0.0 ? 0.0 : sd * draw);
    out[k] = current < -saturation_a ? -saturation_a
             : saturation_a < current ? saturation_a
                                      : current;
  }
}

[[maybe_unused]] kernel_table make_kernel_table(level lvl, const char* name) {
  kernel_table t;
  t.lvl = lvl;
  t.name = name;
  t.fill_normal = &fill_normal_kernel;
  t.rin_power = &rin_power_kernel;
  t.dac_pass = &dac_pass_kernel;
  t.adc_pass = &adc_pass_kernel;
  t.weight_product = &weight_product_kernel;
  t.blocked_sums = &blocked_sums_kernel;
  t.moment_sums = &moment_sums_kernel;
  t.readout_currents = &readout_currents_kernel;
  return t;
}

}  // namespace
}  // namespace onfiber::phot::simd
