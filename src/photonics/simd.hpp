// simd.hpp — runtime ISA dispatch for the sample-plane kernels.
//
// The hot per-symbol passes (cross-row counter-noise fill, DAC/ADC math,
// laser RIN power, modulator pass, batched blocked readout sums,
// per-readout moment sums, readout currents) are compiled four times — scalar, SSE4.1, AVX2,
// AVX-512 — in per-ISA translation units (simd_kernels_*.cpp, each with
// its own -m flags), and the best level the host supports is selected
// once at startup via cpuid.
//
// Contract: every level produces bit-identical doubles. The kernels are
// element-wise IEEE arithmetic (plus a fixed 8-accumulator reduction
// whose partial-sum order is the same at every vector width), all TUs
// are compiled with -ffp-contract=off, and the rare transcendental paths
// (inverse-CDF tails) take the one shared scalar std::log. So the
// dispatch level — like the thread count — changes wall-clock time only,
// never a bit of output; test_simd_dispatch.cpp pins this with exact
// double equality on full laser->photodetector chains.
//
// ONFIBER_SIMD=scalar|sse4|avx2|avx512 overrides the choice (clamped to
// what the host actually supports), so every level is testable anywhere.
#pragma once

#include <cstddef>
#include <cstdint>

namespace onfiber::phot::simd {

/// Instruction-set tiers, ordered: a host that supports level L supports
/// every level below it.
enum class level : int { scalar = 0, sse4 = 1, avx2 = 2, avx512 = 3 };

/// The dispatched kernel set. One instance per ISA tier; all members of
/// one table come from the same translation unit (same -m flags).
struct kernel_table {
  level lvl;
  const char* name;

  /// Counter-noise fill over `rows` streams, row-major:
  /// out[r * n + i] = counter_normal(keys[r], base + i). One row is one
  /// stream's fill (counter_stream::fill_normal); a GEMM fills one
  /// stream kind for a whole row range in one call.
  void (*fill_normal)(const std::uint64_t* keys, std::size_t rows,
                      std::uint64_t base, double* out, std::size_t n);

  /// Laser RIN power pass: out[i] = max(base_mw + sigma_mw * noise[i], 0).
  /// `out` may alias `noise`.
  void (*rin_power)(const double* noise, std::size_t n, double base_mw,
                    double sigma_mw, double* out);

  /// DAC math pass: quantize to the N-level grid, add ENOB noise, clip to
  /// [0, full_scale]. Same arithmetic order as the scalar convert_core.
  void (*dac_pass)(const double* in, const double* noise, std::size_t n,
                   double full_scale, double levels, double sigma,
                   double* out);

  /// ADC math pass: add ENOB noise, then quantize to the grid.
  void (*adc_pass)(const double* in, const double* noise, std::size_t n,
                   double full_scale, double levels, double sigma,
                   double* out);

  /// Modulator pass over DAC outputs drive[i] >= 0: the calibrated MZM
  /// transmission clamps to 1, holds the extinction floor and applies the
  /// insertion loss, max(min(drive, 1), floor_t) * loss, and the power it
  /// modulates multiplies it. `out` may alias `power_mw`.
  void (*weight_product)(const double* drive, std::size_t n, double floor_t,
                         double loss, const double* power_mw, double* out);

  /// Readout accumulation over `count` readouts of `n` values each:
  /// out[k] is the 8-accumulator blocked sum of x[k * n, (k + 1) * n),
  /// each with its own fixed fold order, identical at every vector width
  /// (including scalar).
  void (*blocked_sums)(const double* x, std::size_t n, std::size_t count,
                       double* out);

  /// Per-readout moment sums of `count` readouts of `n` symbols, readout
  /// k's operands at k * n: mean[k] = sum_i wm[i] * xm[i] and var[k] =
  /// sum_i (wv[i] * xv[i] + wh[i] * xh[i]), the wh term only when wh is
  /// non-null. Each sum runs blocked_sums' eight accumulators and fold
  /// order, mean and variance independently, so every width rounds the
  /// same.
  void (*moment_sums)(const double* wm, const double* xm, const double* wv,
                      const double* xv, const double* wh, const double* xh,
                      std::size_t n, std::size_t count, double* mean,
                      double* var);

  /// photodetector::integrate_readouts' per-readout chain, branch-free:
  /// readout k's mean power sums[k] / symbols [mW] to a current, plus
  /// noise[k] times the shot (when `shot`) and thermal noise deviation,
  /// clipped to +/- saturation_a. `out` may alias `sums`.
  void (*readout_currents)(const double* sums, const double* noise,
                           std::size_t count, double symbols,
                           double responsivity, double dark_a, bool shot,
                           double two_q, double bandwidth_hz,
                           double thermal_var, double saturation_a,
                           double* out);
};

/// Best level this host supports (cpuid; cached after the first call).
[[nodiscard]] level detected_level();

/// Whether the host supports `l` (i.e. l <= detected_level()).
[[nodiscard]] bool level_supported(level l);

/// Short name ("scalar", "sse4", "avx2", "avx512") for reports and logs.
[[nodiscard]] const char* level_name(level l);

/// The kernel table compiled for `l`, regardless of what is active. Used
/// by tests that compare levels directly; callers must not invoke a
/// table above detected_level().
[[nodiscard]] const kernel_table& table_for(level l);

/// The active kernel table: min(detected level, ONFIBER_SIMD override).
/// Resolved once on first use; cheap enough for per-batch calls.
[[nodiscard]] const kernel_table& active();

/// Force the active level (test hook). Returns false — and leaves the
/// active table unchanged — if the host does not support `l`.
bool set_level(level l);

/// Re-resolve the active level from ONFIBER_SIMD (tests that setenv
/// mid-process). Not safe to call while kernels are running.
void refresh();

}  // namespace onfiber::phot::simd
