// E11 — Table 1 (C2): data encryption on fiber.
//
// Optical phase-mask stream encryption: correctness, eavesdropper BER,
// line-rate throughput, and energy vs the digital XOR baseline.
#include <cstdio>

#include "apps/encryption.hpp"
#include "apps/intrusion_detection.hpp"
#include "bench_util.hpp"

using namespace onfiber;
using namespace onfiber::bench;

int main() {
  banner("E11 / Table 1 C2", "data encryption: optical phase mask");

  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i * 7);

  // ---- correctness + security view ----------------------------------------
  note("round trip and eavesdropper view (1 kB payloads)");
  std::printf("  %10s %16s %18s\n", "trial", "decrypt BER",
              "eavesdropper BER");
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint8_t> plain(1024);
    apps::fill_random_bytes(plain, 100 + static_cast<std::uint64_t>(trial));
    apps::photonic_crypto crypto({}, 31 + static_cast<std::uint64_t>(trial));
    digital::stream_cipher enc(key, static_cast<std::uint64_t>(trial));
    digital::stream_cipher dec(key, static_cast<std::uint64_t>(trial));
    const auto wave = crypto.encrypt(plain, enc);
    const auto good = crypto.decrypt(wave, plain.size(), dec);
    const auto spied = crypto.eavesdrop(wave, plain.size());
    std::printf("  %10d %15.4f%% %17.1f%%\n", trial,
                100.0 * apps::bit_error_fraction(plain, good),
                100.0 * apps::bit_error_fraction(plain, spied));
  }

  // ---- throughput ------------------------------------------------------------
  note("");
  note("line-rate encryption throughput (mask rides the existing symbols)");
  {
    apps::photonic_crypto crypto({}, 41);
    const std::size_t bytes = 1500;
    const double t = crypto.stream_latency_s(bytes);
    std::printf("  1500 B frame in %s -> %.2f Gb/s per wavelength lane\n",
                fmt_time(t).c_str(),
                static_cast<double>(bytes) * 8.0 / t / 1e9);
  }

  // ---- energy ----------------------------------------------------------------
  note("");
  note("energy per encrypted bit");
  {
    phot::energy_ledger ledger;
    apps::photonic_crypto crypto({}, 43, &ledger);
    digital::stream_cipher enc(key, 99);
    std::vector<std::uint8_t> plain(1024);
    apps::fill_random_bytes(plain, 777);
    (void)crypto.encrypt(plain, enc);
    const double bits = 1024.0 * 8.0;
    // Digital XOR path: ~2 pJ/bit (ARX rounds + memory on a CPU NIC).
    std::printf("  photonic mask (all devices): %12s/bit\n",
                fmt_energy(ledger.total_joules() / bits).c_str());
    std::printf("  digital keystream XOR      : %12s/bit (host-class)\n",
                fmt_energy(2e-12).c_str());
    note("  (the photonic path still needs the digital keystream generator;");
    note("   the saving is removing the per-bit XOR + OEO from the datapath)");
  }

  std::printf("\n");
  return 0;
}
