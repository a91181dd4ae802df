// E6 — §2.2 quantitative claims: energy per operation and compute rates.
//
// The paper: "prior work demonstrated the possibility of consuming only
// 40e-18 J for an 8-bit MAC [50]. Compared to ... TPUs, which consume
// 7e-14 J for an 8-bit multiplication, photonic computing can improve the
// energy efficiency" — a 1750x optical-energy gap. This bench regenerates
// that headline and the honest system-level view including drivers and
// converters.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "digital/device_model.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"

using namespace onfiber;
using namespace onfiber::bench;

int main() {
  banner("E6 / Sec. 2.2", "energy per operation: photonic vs digital");

  const phot::energy_costs costs;

  // ---- headline per-MAC comparison ---------------------------------------
  note("per-8-bit-MAC energy (paper's cited device numbers)");
  std::printf("  %-22s %14s %14s\n", "device", "J / MAC", "vs photonic");
  const struct {
    const char* name;
    double joules;
  } rows[] = {
      {"photonic (optical)", costs.photonic_mac_j},
      {"TPU", costs.digital_tpu_mac_j},
      {"GPU (A100-class)", costs.digital_gpu_mac_j},
      {"edge CPU", costs.digital_cpu_mac_j},
  };
  for (const auto& row : rows) {
    std::printf("  %-22s %14s %13.0fx\n", row.name,
                fmt_energy(row.joules).c_str(),
                row.joules / costs.photonic_mac_j);
  }
  note("");
  std::printf("  paper claim: TPU/photonic = 70 fJ / 40 aJ = 1750x  -> measured %.0fx\n",
              costs.digital_tpu_mac_j / costs.photonic_mac_j);

  // ---- clock-rate comparison ----------------------------------------------
  note("");
  note("compute clock rates (paper cites 1.05 GHz TPU, 1.41 GHz GPU vs");
  note("10+ GBd analog symbol rates)");
  std::printf("  %-22s %14s\n", "engine", "rate");
  std::printf("  %-22s %11.2f GHz\n", "TPU",
              digital::make_tpu_model().clock_hz / 1e9);
  std::printf("  %-22s %11.2f GHz\n", "GPU",
              digital::make_gpu_model().clock_hz / 1e9);
  std::printf("  %-22s %11.2f GBd\n", "photonic engine",
              phot::dot_product_config{}.symbol_rate_hz / 1e9);

  // ---- system-level GEMV energy (honest view) ----------------------------
  note("");
  note("system-level energy of a 64x64 GEMV (includes lasers, drivers,");
  note("detectors and converters on the photonic side; SRAM on digital)");
  {
    constexpr std::size_t dim = 64;
    phot::energy_ledger ledger;
    phot::vector_matrix_engine unit({}, 9, &ledger);
    std::vector<double> a(dim, 0.5), b(dim, 0.5);
    // Every row of the GEMV drives the same devices: one row evaluated
    // dim times charges what the dim rows do.
    (void)unit.dot_unit_range(a, b, static_cast<int>(dim));

    std::printf("  photonic unit, by category:\n");
    for (const auto& [name, e] : ledger.entries()) {
      std::printf("    %-16s %12s  (%llu ops)\n", name.c_str(),
                  fmt_energy(e.joules).c_str(),
                  static_cast<unsigned long long>(e.ops));
    }
    std::printf("    %-16s %12s\n", "TOTAL",
                fmt_energy(ledger.total_joules()).c_str());

    const std::uint64_t macs = dim * dim;
    const auto tpu = digital::make_tpu_model();
    const auto gpu = digital::make_gpu_model();
    std::printf("  TPU total              %12s\n",
                fmt_energy(tpu.gemv_energy_j(macs, macs + dim)).c_str());
    std::printf("  GPU total              %12s\n",
                fmt_energy(gpu.gemv_energy_j(macs, macs + dim)).c_str());
    std::printf("  optical-only photonic  %12s   (the paper's 40 aJ/MAC)\n",
                fmt_energy(ledger.joules("photonic_mac")).c_str());
  }

  std::printf("\n");
  return 0;
}
