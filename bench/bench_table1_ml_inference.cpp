// E7 — Table 1 (C1): machine learning inference.
//
// Accuracy of the photonic DNN vs the float reference and int8 digital
// baselines; the photonic-aware-training ablation; accuracy vs laser
// power (noise); latency/energy per inference across compute locations.
#include <cstdio>
#include <vector>

#include "apps/ml_inference.hpp"
#include "bench_util.hpp"
#include "core/compute_packets.hpp"
#include "digital/device_model.hpp"
#include "digital/dnn.hpp"

using namespace onfiber;
using namespace onfiber::bench;

int main(int argc, char** argv) {
  banner("E7 / Table 1 C1", "machine learning inference on fiber");

  const auto data = digital::make_synthetic_dataset(16, 4, 50, 0.08, 7);
  const auto aware =
      digital::train_mlp(data, {12}, 60, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  const auto relu = digital::train_mlp(data, {12}, 60, 0.08, 11);

  // ---- accuracy table ------------------------------------------------------
  note("classification accuracy (16-dim synthetic, 4 classes, 200 samples)");
  std::printf("  %-38s %10s\n", "execution path", "accuracy");
  std::printf("  %-38s %9.1f%%\n", "float reference (photonic-aware model)",
              100.0 * digital::reference_accuracy(aware, data));
  {
    std::size_t agree = 0;
    const auto tpu = digital::make_tpu_model();
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
      const auto r = digital::infer_int8(aware, data.samples[i], tpu);
      if (digital::argmax(r.logits) == data.labels[i]) ++agree;
    }
    std::printf("  %-38s %9.1f%%\n", "int8 digital (TPU path)",
                100.0 * agree / data.samples.size());
  }
  {
    core::photonic_engine engine({}, 99);
    engine.configure_dnn(apps::to_photonic_task(aware));
    const auto eval = apps::evaluate_photonic(engine, aware, data);
    std::printf("  %-38s %9.1f%%   (compute %s/inference)\n",
                "photonic engine (photonic-aware)", 100.0 * eval.accuracy,
                fmt_time(eval.mean_compute_latency_s).c_str());
  }
  {
    core::photonic_engine engine({}, 99);
    engine.configure_dnn(apps::to_photonic_task(relu));
    const auto eval = apps::evaluate_photonic(engine, relu, data);
    std::printf("  %-38s %9.1f%%   <-- ablation: naive ReLU mapping\n",
                "photonic engine (ReLU-trained)", 100.0 * eval.accuracy);
  }

  // ---- accuracy vs optical power (photonic noise, §4) ---------------------
  note("");
  note("photonic accuracy vs laser power (noise mitigation story of Sec. 4)");
  std::printf("  %12s %10s\n", "power", "accuracy");
  for (const double power_mw : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    core::engine_config cfg;
    cfg.dot.laser.power_mw = power_mw;
    core::photonic_engine engine(cfg, 123);
    engine.configure_dnn(apps::to_photonic_task(aware));
    const auto eval = apps::evaluate_photonic(engine, aware, data);
    std::printf("  %9.3f mW %9.1f%%\n", power_mw, 100.0 * eval.accuracy);
  }

  // ---- per-inference cost vs digital devices -------------------------------
  note("");
  note("per-inference compute latency and energy (240-MAC model)");
  std::printf("  %-22s %12s %12s\n", "device", "latency", "energy");
  const std::uint64_t macs = aware.mac_count();
  for (const auto& dev : {digital::make_tpu_model(),
                          digital::make_gpu_model(),
                          digital::make_edge_cpu_model()}) {
    std::printf("  %-22s %12s %12s\n", dev.name.c_str(),
                fmt_time(dev.gemv_latency_s(macs)).c_str(),
                fmt_energy(dev.gemv_energy_j(macs, macs)).c_str());
  }
  {
    phot::energy_ledger ledger;
    core::photonic_engine engine({}, 99, &ledger);
    engine.configure_dnn(apps::to_photonic_task(aware));
    net::packet pkt = core::make_dnn_request(
        net::ipv4(10, 0, 0, 2), net::ipv4(10, 1, 0, 2), data.samples[0],
        aware.output_dim());
    const auto rep = engine.process(pkt);
    std::printf("  %-22s %12s %12s  (optical-only: %s)\n", "photonic engine",
                fmt_time(rep.compute_latency_s).c_str(),
                fmt_energy(ledger.total_joules()).c_str(),
                fmt_energy(ledger.joules("photonic_mac")).c_str());
  }

  // ---- simulator throughput ------------------------------------------------
  // Wall-clock DNN inference rate of the simulator itself (parallel GEMV
  // layers); recorded in BENCH_kernels.json via --json.
  note("");
  {
    core::photonic_engine engine({}, 99);
    engine.configure_dnn(apps::to_photonic_task(aware));
    const auto warm = apps::evaluate_photonic(engine, aware, data);  // warm-up
    stopwatch sw;
    const int passes = 3;
    for (int p = 0; p < passes; ++p) {
      (void)apps::evaluate_photonic(engine, aware, data);
    }
    const double inferences =
        static_cast<double>(passes) * static_cast<double>(data.samples.size());
    const double per_s = inferences / sw.elapsed_s();
    std::printf("  simulator rate: %.0f inferences/s (wall clock, accuracy "
                "%.1f%%)\n",
                per_s, 100.0 * warm.accuracy);

    // Batched datapath: the same samples as per-sample packets pooled
    // through process_batch (layer-major GEMMs over the whole chunk).
    core::photonic_engine batch_engine({}, 99);
    batch_engine.configure_dnn(apps::to_photonic_task(aware));
    const auto warm_b =
        apps::evaluate_photonic(batch_engine, aware, data, 64);
    stopwatch sw_b;
    for (int p = 0; p < passes; ++p) {
      (void)apps::evaluate_photonic(batch_engine, aware, data, 64);
    }
    const double batch_per_s = inferences / sw_b.elapsed_s();
    std::printf("  batched rate:   %.0f inferences/s (wall clock, accuracy "
                "%.1f%%, %.2fx)\n",
                batch_per_s, 100.0 * warm_b.accuracy, batch_per_s / per_s);

    const std::string json_path = json_path_from_args(argc, argv);
    if (!json_path.empty()) {
      json_report report(json_path);
      report.set("table1.inferences_per_s", per_s);
      report.set("table1.batch_inferences_per_s", batch_per_s);
      report.set("table1.model_macs", static_cast<double>(macs));
      record_simd_levels(report);
      if (!report.write()) {
        std::fprintf(stderr, "table1: cannot write %s\n", json_path.c_str());
        return 1;
      }
    }
  }

  std::printf("\n");
  return 0;
}
