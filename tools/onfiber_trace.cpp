// onfiber_trace — inspector for the observability plane (src/obs).
//
// Runs the flap + bit-error scenario from the determinism suite with
// tracing enabled, then answers questions from the retained records:
//
//   onfiber_trace --list
//       One line per traced packet: record count, first/last action,
//       and where it ended up (delivered / dropped+reason / in flight).
//
//   onfiber_trace --packet N
//       Pretty-print packet N's life, hop by hop.
//
//   onfiber_trace --metrics
//       Flat metrics JSON on stdout.
//
//   onfiber_trace --trace-csv F | --timeline-csv F | --metrics-json F
//   | --metrics-csv F
//       Dump the corresponding exporter output to file F.
//
// With no arguments it prints a run summary (counters + ring usage).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace {

using namespace onfiber;

/// Fig. 1 WAN, GEMV engines at B and C, both of B's links flapping, BER
/// 1e-4 — the determinism suite's scenario, instrumented.
void run_scenario() {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  rt.deploy_engine(1, {}, 21).configure_gemv(task);
  rt.deploy_engine(2, {}, 22).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.004, 0.011},
      {2, 0.006, 0.013},
  };
  rt.fabric().schedule_flaps(flaps, 0.002, 17, 0.0005);
  rt.fabric().set_bit_error_rate(1e-4, 99);

  std::vector<double> x(16);
  for (int i = 0; i < 48; ++i) {
    engine.schedule_global(0.0004 * i, [&rt, &x, i]() mutable {
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] =
            -1.0 + 2.0 * static_cast<double>((k * 31 + i * 7) % 97) / 96.0;
      }
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(0).address,
                    rt.fabric().topo().node_at(3).address, x, 4,
                    static_cast<std::uint32_t>(i)),
                0);
    });
  }
  engine.run(1'000'000);
}

void print_record(const obs::hop_record& r) {
  std::printf("  %12.9fs  node %-3u %-9s", r.time_s, r.node,
              obs::to_string(r.action));
  switch (r.action) {
    case obs::hop_action::forward:
    case obs::hop_action::redirect:
      std::printf("  -> node %u", r.aux);
      break;
    case obs::hop_action::drop:
      std::printf("  (%s)", obs::to_string(r.reason));
      break;
    case obs::hop_action::batch:
      std::printf("  (flush of %u)", r.aux);
      break;
    default:
      break;
  }
  std::printf("\n");
}

int cmd_list() {
  struct life_summary {
    std::size_t records = 0;
    obs::hop_record last;
  };
  std::map<std::uint32_t, life_summary> lives;
  for (const obs::hop_record& r : obs::tracer::global().snapshot()) {
    life_summary& s = lives[r.trace_id];
    ++s.records;
    s.last = r;
  }
  std::printf("trace_id  records  fate\n");
  for (const auto& [id, s] : lives) {
    std::printf("%8u  %7zu  %s", id, s.records, obs::to_string(s.last.action));
    if (s.last.action == obs::hop_action::drop) {
      std::printf(" (%s)", obs::to_string(s.last.reason));
    }
    std::printf(" at node %u, t=%.9fs\n", s.last.node, s.last.time_s);
  }
  return 0;
}

int cmd_packet(std::uint32_t id) {
  const auto life = obs::tracer::global().packet_life(id);
  if (life.empty()) {
    std::fprintf(stderr, "no retained records for trace_id %u\n", id);
    return 1;
  }
  std::printf("packet %u (%zu records):\n", id, life.size());
  for (const obs::hop_record& r : life) print_record(r);
  return 0;
}

int dump(const std::string& path, const std::string& body) {
  if (!obs::exporter::write_file(path, body)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), body.size());
  return 0;
}

int cmd_summary() {
  const obs::tracer& tr = obs::tracer::global();
  std::printf("hop records: %llu recorded, %zu retained (capacity %zu)\n",
              static_cast<unsigned long long>(tr.total_recorded()),
              tr.snapshot().size(), tr.capacity());
  std::printf("site samples: %llu recorded\n",
              static_cast<unsigned long long>(
                  obs::timeline::global().total_recorded()));
  std::printf("%s", obs::exporter::metrics_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  obs::timeline::global().clear();
  run_scenario();

  if (argc <= 1) return cmd_summary();
  const std::string cmd = argv[1];
  const auto arg = [&](int i) -> std::string {
    return i < argc ? argv[i] : "";
  };
  if (cmd == "--list") return cmd_list();
  if (cmd == "--packet" && argc >= 3) {
    return cmd_packet(static_cast<std::uint32_t>(std::stoul(arg(2))));
  }
  if (cmd == "--metrics") {
    std::printf("%s", obs::exporter::metrics_json().c_str());
    return 0;
  }
  if (cmd == "--trace-csv" && argc >= 3) {
    return dump(arg(2), obs::exporter::trace_csv());
  }
  if (cmd == "--timeline-csv" && argc >= 3) {
    return dump(arg(2), obs::exporter::timeline_csv());
  }
  if (cmd == "--metrics-json" && argc >= 3) {
    return dump(arg(2), obs::exporter::metrics_json());
  }
  if (cmd == "--metrics-csv" && argc >= 3) {
    return dump(arg(2), obs::exporter::metrics_csv());
  }
  std::fprintf(stderr,
               "usage: onfiber_trace [--list | --packet N | --metrics |\n"
               "                      --trace-csv F | --timeline-csv F |\n"
               "                      --metrics-json F | --metrics-csv F]\n");
  return 2;
}
