// quickstart.cpp — the 5-minute tour of the on-fiber photonic computing
// library: exercise the three photonic primitives of paper §2.1 directly,
// then run one compute packet through a photonic engine.
//
//   build:  cmake -B build -G Ninja && cmake --build build
//   run:    ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/engine/nonlinear_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"

using namespace onfiber;

int main() {
  std::printf("on-fiber photonic computing — quickstart\n\n");

  // ------------------------------------------------------------------ P1
  // Photonic vector dot product (Fig. 2a): two cascaded Mach-Zehnder
  // modulators multiply element-wise in the intensity domain; the
  // photodetector integrates (sums); DAC/ADC bound the precision.
  {
    phot::vector_matrix_engine unit({}, /*seed=*/42);
    const std::vector<double> a{0.9, 0.2, 0.7, 0.4};
    const std::vector<double> b{0.5, 0.8, 0.1, 0.6};
    const auto r = unit.dot_unit_range(a, b);
    double exact = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) exact += a[i] * b[i];
    std::printf("P1 dot product : analog %.4f  exact %.4f  (%.1f ns)\n",
                r.value, exact, r.latency_s * 1e9);
  }

  // ------------------------------------------------------------------ P2
  // Photonic pattern matching (Fig. 2b): phase-encode data and pattern,
  // interfere; the dark port's power counts mismatched bits. Wildcards
  // give TCAM semantics.
  {
    phot::pattern_matcher matcher({}, 7);
    const std::vector<std::uint8_t> data{0xca, 0xfe};
    const std::vector<std::uint8_t> same{0xca, 0xfe};
    const std::vector<std::uint8_t> close{0xca, 0xff};
    std::printf("P2 match       : exact=%d   1-byte-off=%d (mismatch %.3f)\n",
                matcher.match_bytes(data, same).matched,
                matcher.match_bytes(data, close).matched,
                matcher.match_bytes(data, close).mismatch_fraction);
  }

  // ------------------------------------------------------------------ P3
  // Photonic nonlinear function (Fig. 2c): a tapped photodetector drives
  // a null-biased modulator — a ReLU-like transfer, all optical.
  {
    phot::nonlinear_unit nl({}, 9);
    std::printf("P3 activation  : f(0.1)=%.3f  f(0.5)=%.3f  f(1.0)=%.3f\n",
                nl.activate(0.1, 10.0), nl.activate(0.5, 10.0),
                nl.activate(1.0, 10.0));
  }

  // ------------------------------------------------ a compute packet
  // The protocol view (§3): a compute header layered over IP asks for a
  // GEMV; the photonic engine at a transponder fills in the result field.
  {
    core::photonic_engine engine({}, 11);
    core::gemv_task task;
    task.weights = phot::matrix(2, 4);
    task.weights.at(0, 0) = 1.0;   // y0 = x0
    task.weights.at(1, 3) = -1.0;  // y1 = -x3
    engine.configure_gemv(task);

    const std::vector<double> x{0.8, 0.1, 0.3, 0.5};
    net::packet pkt = core::make_gemv_request(
        net::ipv4(10, 0, 0, 2), net::ipv4(10, 3, 0, 2), x, /*out_dim=*/2);
    const auto report = engine.process(pkt);
    const auto result = core::read_gemv_result(pkt);
    std::printf(
        "compute packet : computed=%d  y=[%.3f, %.3f]  expect [0.8, -0.5]\n",
        report.computed, (*result)[0], (*result)[1]);
  }

  std::printf("\nnext: examples/wan_inference, examples/intrusion_detection,\n"
              "      examples/controller_demo, examples/load_balancer\n");
  return 0;
}
