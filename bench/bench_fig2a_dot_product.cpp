// E1 — Fig. 2a: P1 photonic vector dot product.
//
// Regenerates the characterization a hardware paper would show for the
// primitive: accuracy vs vector dimension, vs converter resolution, and
// vs optical power (shot-noise limit), plus throughput (MAC/s) of the
// time-multiplexed unit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/kernels.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

/// One timed key of the kernel-performance table: a pass is `reps`
/// calls of `body`.
struct timed_key {
  int reps = 1;
  std::function<void()> body;
};

/// Seconds per call of each key's body: its best pass, with every key's
/// short passes taken round-robin across one wall-clock window (at least
/// 5 rounds). A shared host's load changes on a scale of seconds (the
/// scalar reference read 150 against 240 ns/MAC on one core of a shared
/// 4-CPU x86-64 host), so passes bunched together read whichever phase
/// they fall in; spread over the whole window, every key gets the same
/// chance at a quiet phase, and the minimum is the noise-robust estimator
/// for a deterministic workload. Each pass starts with one untimed call,
/// so it is not charged for the previous key's cache footprint.
std::vector<double> best_s_per_call(std::span<const timed_key> keys,
                                    double window_s) {
  std::vector<double> best(keys.size(), 1e30);
  const stopwatch window;
  for (int round = 0; round < 5 || window.elapsed_s() < window_s; ++round) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k].body();
      const stopwatch pass;
      for (int t = 0; t < keys[k].reps; ++t) keys[k].body();
      best[k] = std::min(best[k], pass.elapsed_s() / keys[k].reps);
    }
  }
  return best;
}

double rms_error(phot::vector_matrix_engine& unit, std::size_t dim,
                 int trials, phot::rng& gen) {
  double sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a(dim), b(dim);
    for (double& x : a) x = gen.uniform();
    for (double& x : b) x = gen.uniform();
    const double exact =
        std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
    const auto r = unit.dot_unit_range(a, b);
    sq += (r.value - exact) * (r.value - exact);
  }
  return std::sqrt(sq / trials);
}

}  // namespace

int main(int argc, char** argv) {
  banner("E1 / Fig. 2a", "P1 photonic vector dot product characterization");

  // ---- accuracy vs dimension (8-bit converters, defaults) --------------
  note("accuracy vs vector dimension (8-bit DAC/ADC, 10 mW laser)");
  std::printf("  %8s %14s %14s %16s\n", "dim", "RMS error", "rel. error",
              "latency");
  for (const std::size_t dim : {4u, 16u, 64u, 256u, 1024u}) {
    phot::vector_matrix_engine unit({}, 42 + dim);
    phot::rng gen(7 + dim);
    const double rms = rms_error(unit, dim, 30, gen);
    // Typical dot value ~ dim/4 for uniform [0,1] inputs.
    const double typical = static_cast<double>(dim) / 4.0;
    phot::vector_matrix_engine lat_unit({}, 1);
    std::vector<double> ones(dim, 1.0);
    const auto r = lat_unit.dot_unit_range(ones, ones);
    std::printf("  %8zu %14.4f %13.2f%% %16s\n", dim, rms,
                100.0 * rms / typical, fmt_time(r.latency_s).c_str());
  }

  // ---- accuracy vs converter bits --------------------------------------
  note("");
  note("accuracy vs converter resolution (dim = 64)");
  std::printf("  %8s %14s\n", "bits", "RMS error");
  for (const int bits : {4, 6, 8, 10, 12}) {
    phot::dot_product_config cfg;
    cfg.dac.bits = bits;
    cfg.adc.bits = bits;
    phot::vector_matrix_engine unit(cfg,
                                    100 + static_cast<std::uint64_t>(bits));
    phot::rng gen(200 + static_cast<std::uint64_t>(bits));
    std::printf("  %8d %14.4f\n", bits, rms_error(unit, 64, 30, gen));
  }

  // ---- accuracy vs optical power (shot-noise limit) ---------------------
  note("");
  note("accuracy vs laser power (dim = 64, 14-bit converters to expose the");
  note("analog noise floor) — the shot-noise limit of [50]");
  std::printf("  %12s %14s\n", "power", "RMS error");
  for (const double power_mw : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    phot::dot_product_config cfg;
    cfg.laser.power_mw = power_mw;
    cfg.dac.bits = 14;
    cfg.adc.bits = 14;
    cfg.dac.enob_penalty = 0.0;
    cfg.adc.enob_penalty = 0.0;
    phot::vector_matrix_engine unit(cfg, 300);
    phot::rng gen(400);
    std::printf("  %9.3f mW %14.4f\n", power_mw,
                rms_error(unit, 64, 30, gen));
  }

  // ---- throughput --------------------------------------------------------
  note("");
  note("analog throughput of the time-multiplexed unit");
  {
    phot::dot_product_config cfg;
    phot::vector_matrix_engine unit(cfg, 500);
    const std::size_t dim = 1024;
    std::vector<double> ones(dim, 1.0);
    const auto r = unit.dot_unit_range(ones, ones);
    const double macs_per_s = static_cast<double>(dim) / r.latency_s;
    std::printf("  symbol rate %.0f GBd -> %.2f GMAC/s per unit (dim %zu)\n",
                cfg.symbol_rate_hz / 1e9, macs_per_s / 1e9, dim);
  }

  // ---- simulator kernel performance --------------------------------------
  // Wall-clock cost of simulating one MAC: the element-wise field-domain
  // reference vs the engine's one-row unsigned dot (the intensity-domain
  // kernel every P1 caller runs on), plus the parallel signed GEMV
  // throughput. These feed BENCH_kernels.json via --json.
  note("");
  note("simulator kernel performance (wall clock, this machine)");
  {
    const std::size_t dim = 256;
    phot::rng gen(9000);
    std::vector<double> a(dim), b(dim);
    for (double& x : a) x = gen.uniform();
    for (double& x : b) x = gen.uniform();

    phot::dot_product_unit scalar_unit({}, 600);
    phot::vector_matrix_engine fused_unit({}, 600);
    volatile double sink = 0.0;
    const auto scalar_dot = [&] {
      sink = sink + scalar_unit.dot_unit_range_scalar(a, b).value;
    };
    const auto fused_dot = [&] {
      sink = sink + fused_unit.dot_unit_range(a, b).value;
    };

    // Parallel signed GEMV throughput (ONFIBER_THREADS-sized pool).
    const std::size_t rows = 16;
    phot::matrix w(rows, dim);
    for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
    std::vector<double> x(dim);
    for (double& v : x) v = 2.0 * gen.uniform() - 1.0;
    phot::vector_matrix_engine engine({}, 700);
    const auto gemv = [&] { sink = sink + engine.gemv_signed(w, x).values[0]; };

    // Multi-packet batched GEMM: 16 input vectors streamed through the
    // same weight rails (split once per row for the whole batch).
    const std::size_t batch = 16;
    std::vector<double> xs(batch * dim);
    for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;
    phot::vector_matrix_engine batch_engine({}, 700);
    const auto gemm = [&] {
      sink = sink + batch_engine.gemm_signed(w, xs).values[0];
    };

    // Batch-one on-fiber GEMMs at the shapes of the Fig. 1 MLP's two
    // layers (12x16, then 4x12) on one thread: the sample-plane cost of
    // one on-fiber DNN request.
    phot::vector_matrix_engine optical_engine({}, 800);
    optical_engine.set_threads(1);
    phot::dot_product_unit launcher({}, 801);
    const double ref_mw =
        launcher.config().laser.power_mw *
        phot::db_to_ratio(-launcher.config().modulator.insertion_loss_db);
    struct layer {
      phot::rail_weights rails;
      std::vector<double> received;
    };
    std::vector<layer> layers;
    for (const auto& [out_dim, in_dim] :
         {std::pair<std::size_t, std::size_t>{12, 16}, {4, 12}}) {
      phot::matrix lw(out_dim, in_dim);
      for (double& v : lw.data) v = 2.0 * gen.uniform() - 1.0;
      std::vector<double> lx(in_dim);
      for (double& v : lx) v = 2.0 * gen.uniform() - 1.0;
      std::vector<double> received(4 * in_dim);
      launcher.encode_rails_received(lx, in_dim, received);
      layers.push_back({phot::rail_weights(lw, launcher.config()),
                        std::move(received)});
    }
    const auto request = [&] {
      for (const layer& l : layers) {
        sink = sink +
               optical_engine.gemm_optical(l.rails, l.received, ref_mw)
                   .values[0];
      }
    };

    // The upstream launch of those layers' inputs: one 16-wide, then one
    // 12-wide sample through encode_rails_received, per launched symbol
    // (two rails per element).
    std::vector<double> x16(16), x12(12), launched(4 * 16);
    for (double& v : x16) v = 2.0 * gen.uniform() - 1.0;
    for (double& v : x12) v = 2.0 * gen.uniform() - 1.0;
    const auto launch = [&] {
      launcher.encode_rails_received(x16, 16, launched);
      launcher.encode_rails_received(x12, 12, launched);
      sink = sink + launched[0];
    };

    const timed_key keys[] = {{40, scalar_dot}, {800, fused_dot},
                              {12, gemv},       {2, gemm},
                              {2000, request},  {20000, launch}};
    const std::vector<double> s_per_call = best_s_per_call(keys, 12.0);
    const double scalar_ns = s_per_call[0] * 1e9 / dim;
    const double fused_ns = s_per_call[1] * 1e9 / dim;
    const double rows_per_s = rows / s_per_call[2];
    const double batch_ns =
        s_per_call[3] * 1e9 / static_cast<double>(rows * batch * dim);
    const double optical_b1_ns = s_per_call[4] * 1e9 / (12 * 16 + 4 * 12);
    const double launch_ns = s_per_call[5] * 1e9 / (2 * (16 + 12));

    // Accuracy/energy context for the speed numbers: the effective
    // resolution the converters deliver under their modeled noise, and
    // the analog energy one MAC costs — ns/MAC alone rewards a simulator
    // for cutting corners; these keys pin what quality the time buys.
    phot::dot_product_config cfg;
    const phot::dac enob_dac(cfg.dac, phot::rng{1});
    const phot::adc enob_adc(cfg.adc, phot::rng{2});
    phot::energy_ledger ledger;
    phot::vector_matrix_engine energy_unit({}, 600, &ledger);
    (void)energy_unit.dot_unit_range(a, b);
    const double energy_per_mac_j =
        ledger.total_joules() / static_cast<double>(dim);

    std::printf("  scalar reference  %10.2f ns/MAC (dim %zu)\n", scalar_ns,
                dim);
    std::printf("  fused kernel      %10.2f ns/MAC  (%.2fx speedup)\n",
                fused_ns, scalar_ns / fused_ns);
    std::printf("  parallel GEMV     %10.0f rows/s (%zux%zu signed, %zu "
                "threads)\n",
                rows_per_s, rows, dim, phot::kernel_thread_count());
    std::printf("  batched GEMM      %10.2f ns/MAC (batch %zu, %zux%zu "
                "signed)\n",
                batch_ns, batch, rows, dim);
    std::printf("  on-fiber GEMM     %10.2f ns/MAC (batch 1, 12x16 then "
                "4x12, 1 thread)\n",
                optical_b1_ns);
    std::printf("  on-fiber launch   %10.2f ns/symbol (16 then 12 wide, "
                "batch 1)\n",
                launch_ns);
    std::printf("  simd dispatch     %10s (detected %s)\n",
                simd_active_name(),
                phot::simd::level_name(phot::simd::detected_level()));
    std::printf("  converter ENOB    %10.2f bits DAC / %.2f bits ADC "
                "(%d nominal)\n",
                enob_dac.effective_bits(), enob_adc.effective_bits(),
                cfg.adc.bits);
    std::printf("  analog energy     %10s/MAC\n",
                fmt_energy(energy_per_mac_j).c_str());

    const std::string json_path = json_path_from_args(argc, argv);
    if (!json_path.empty()) {
      json_report report(json_path);
      report.set("fig2a.dim", static_cast<double>(dim));
      report.set("fig2a.scalar_ns_per_mac", scalar_ns);
      report.set("fig2a.fused_ns_per_mac", fused_ns);
      report.set("fig2a.speedup_x", scalar_ns / fused_ns);
      report.set("fig2a.gemv_rows_per_s", rows_per_s);
      report.set("fig2a.batch_ns_per_mac", batch_ns);
      report.set("fig2a.optical_gemm_b1_ns_per_mac", optical_b1_ns);
      report.set("fig2a.launch_ns_per_symbol", launch_ns);
      report.set("fig2a.threads",
                 static_cast<double>(phot::kernel_thread_count()));
      report.set("fig2a.dac_enob_bits", enob_dac.effective_bits());
      report.set("fig2a.adc_enob_bits", enob_adc.effective_bits());
      report.set("fig2a.energy_per_mac_j", energy_per_mac_j);
      report.set("kernels.simd_level",
                 static_cast<double>(phot::simd::active().lvl));
      record_simd_levels(report);
      if (!report.write()) {
        std::fprintf(stderr, "fig2a: cannot write %s\n", json_path.c_str());
        return 1;
      }
    }
  }

  std::printf("\n");
  return 0;
}
