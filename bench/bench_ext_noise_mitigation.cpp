// E20 — §4 noise mitigation: averaging repeated analog evaluations.
//
// "we still need ... new algorithms to mitigate photonic noise during
// computation and achieve high accuracy." The simplest such algorithm is
// K-fold repetition + averaging; this bench maps where it pays (analog-
// noise-limited regimes) and where it cannot (quantization-limited), and
// its latency price.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

double rms_error(phot::vector_matrix_engine& unit,
                 const std::vector<double>& a, const std::vector<double>& b,
                 int repeats, int trials) {
  const double exact =
      std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
  double sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto r = unit.dot_unit_range(a, b, repeats);
    sq += (r.value - exact) * (r.value - exact);
  }
  return std::sqrt(sq / trials);
}

}  // namespace

int main() {
  banner("E20 / Sec. 4", "noise mitigation by analog averaging");

  phot::rng g(7);
  std::vector<double> a(64), b(64);
  for (double& v : a) v = g.uniform();
  for (double& v : b) v = g.uniform();

  // ---- averaging in the shot-noise-limited regime ---------------------------
  note("RMS error vs repeats, 50 uW laser (analog-noise limited),");
  note("12-bit converters — averaging works (~1/sqrt(K))");
  std::printf("  %10s %14s %14s %14s\n", "repeats", "RMS error",
              "vs K=1", "latency x");
  phot::dot_product_config weak;
  weak.laser.power_mw = 0.05;
  weak.dac.bits = 12;
  weak.adc.bits = 12;
  double base = 0.0;
  for (const int k : {1, 2, 4, 8, 16, 32}) {
    phot::vector_matrix_engine unit(weak, 100);
    const double e = rms_error(unit, a, b, k, 30);
    if (k == 1) base = e;
    std::printf("  %10d %14.4f %13.2fx %13dx\n", k, e, base / e, k);
  }

  // ---- averaging in the quantization-limited regime ---------------------------
  note("");
  note("RMS error vs repeats, 10 mW laser, 8-bit converters —");
  note("quantization-limited: averaging helps less (RIN dither only)");
  std::printf("  %10s %14s %14s\n", "repeats", "RMS error", "vs K=1");
  phot::dot_product_config strong;
  base = 0.0;
  for (const int k : {1, 4, 16, 64}) {
    phot::vector_matrix_engine unit(strong, 200);
    const double e = rms_error(unit, a, b, k, 30);
    if (k == 1) base = e;
    std::printf("  %10d %14.4f %13.2fx\n", k, e, base / e);
  }

  // ---- operating-point guidance --------------------------------------------------
  note("");
  note("equal-accuracy operating points (error ~0.1 on a 64-dot):");
  {
    // High power, no averaging.
    phot::dot_product_config hp;
    phot::vector_matrix_engine u1(hp, 300);
    const double e_hp = rms_error(u1, a, b, 1, 30);
    // Low power + averaging.
    phot::dot_product_config lp;
    lp.laser.power_mw = 0.1;
    lp.dac.bits = 12;
    lp.adc.bits = 12;
    phot::vector_matrix_engine u2(lp, 301);
    const double e_lp16 = rms_error(u2, a, b, 16, 30);
    std::printf("  10 mW, K=1   : RMS %.4f at 1x latency\n", e_hp);
    std::printf("  0.1 mW, K=16 : RMS %.4f at 16x latency, 100x less optical power\n",
                e_lp16);
    note("  -> averaging trades latency for laser power: relevant when the");
    note("     engine shares the transponder's power budget (Sec. 5 form factor)");
  }

  std::printf("\n");
  return 0;
}
