// onfiber_cli — command-line driver for the on-fiber photonic computing
// simulator.
//
//   onfiber_cli simulate   --topology {fig1|uswan|linear:N|waxman:N}
//                          --sites N --requests N --dim N
//                          [--spread] [--seed S]
//       Deploy GEMV engines on the chosen topology, fire inference-style
//       requests between random endpoints, report latency/compute stats.
//
//   onfiber_cli allocate   --topology ... --transponders N --demands N
//                          [--solver greedy|local|exact] [--seed S]
//       Run the centralized controller on a synthetic demand set; print
//       the allocation, the route count and the RWA provisioning.
//
//   onfiber_cli primitives [--seed S]
//       Characterize P1/P2/P3 quickly (the Fig. 2 micro-summary).
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>

#include "onfiber.hpp"
#include "controller/rwa.hpp"

namespace {

using namespace onfiber;

struct cli_args {
  std::map<std::string, std::string> options;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stol(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.count(key) != 0;
  }
};

cli_args parse_args(int argc, char** argv, int first) {
  cli_args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";  // boolean flag
    }
  }
  return args;
}

net::topology build_topology(const std::string& spec, std::uint64_t seed) {
  if (spec == "fig1") return net::make_figure1_topology();
  if (spec == "uswan") return net::make_uswan_topology();
  if (spec.rfind("linear:", 0) == 0) {
    return net::make_linear_topology(
        static_cast<std::size_t>(std::stol(spec.substr(7))), 100.0);
  }
  if (spec.rfind("waxman:", 0) == 0) {
    return net::make_waxman_topology(
        static_cast<std::size_t>(std::stol(spec.substr(7))), seed);
  }
  throw std::invalid_argument("unknown topology: " + spec);
}

int cmd_simulate(const cli_args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const auto site_count = static_cast<std::size_t>(args.get_int("sites", 2));
  const auto requests = static_cast<int>(args.get_int("requests", 50));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 32));

  net::shard_engine engine;
  core::onfiber_runtime rt(engine,
                           build_topology(args.get("topology", "fig1"), seed));
  const auto n = rt.fabric().topo().node_count();
  if (site_count == 0 || site_count >= n) {
    std::fprintf(stderr, "sites must be in [1, %zu)\n", n);
    return 2;
  }

  core::gemv_task task;
  task.weights = phot::matrix(8, dim);
  phot::rng wgen(seed);
  for (double& w : task.weights.data) w = wgen.uniform(-1.0, 1.0);
  for (std::size_t s = 0; s < site_count; ++s) {
    const auto node = static_cast<net::node_id>(1 + (s * (n - 1)) / site_count);
    rt.deploy_engine(node, {}, seed + s).configure_gemv(task);
  }
  rt.install_compute_routes_via_nearest_site();
  if (args.has("spread")) {
    rt.set_steering_policy(
        core::onfiber_runtime::steering_policy::flow_spread);
  }

  phot::rng g(seed ^ 0x1234);
  const std::vector<double> x(dim, 0.5);
  for (int i = 0; i < requests; ++i) {
    const auto src = static_cast<net::node_id>(g.below(n));
    net::node_id dst;
    do {
      dst = static_cast<net::node_id>(g.below(n));
    } while (dst == src);
    net::packet pkt = core::make_gemv_request(
        rt.fabric().topo().node_at(src).address,
        rt.fabric().topo().node_at(dst).address, x, 8,
        static_cast<std::uint32_t>(i));
    pkt.flow_hash = static_cast<std::uint32_t>(g());
    rt.submit(std::move(pkt), src);
  }
  engine.run();

  net::summary latency;
  for (const auto& d : rt.deliveries()) {
    latency.add(d.time_s - d.pkt.created_s);
  }
  std::printf("topology            : %s (%zu nodes)\n",
              args.get("topology", "fig1").c_str(), n);
  std::printf("engines             : %zu sites, steering %s\n",
              rt.sites().size(), args.has("spread") ? "spread" : "nearest");
  std::printf("requests delivered  : %zu / %d\n", rt.deliveries().size(),
              requests);
  std::printf("computed in transit : %llu (redirected %llu, uncomputed %llu)\n",
              static_cast<unsigned long long>(rt.stats().computed),
              static_cast<unsigned long long>(rt.stats().redirected),
              static_cast<unsigned long long>(
                  rt.stats().uncomputed_delivered));
  std::printf("latency             : p50 %.3f ms, p99 %.3f ms\n",
              latency.percentile(50) * 1e3, latency.percentile(99) * 1e3);
  return 0;
}

int cmd_allocate(const cli_args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const net::topology topo =
      build_topology(args.get("topology", "uswan"), seed);
  const auto n = topo.node_count();

  ctrl::allocation_problem p;
  p.topo = &topo;
  phot::rng g(seed);
  const auto transponders =
      static_cast<std::uint32_t>(args.get_int("transponders", 6));
  constexpr proto::primitive_id prims[] = {
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p2_pattern_match,
      proto::primitive_id::p1_p3_dnn};
  for (std::uint32_t t = 0; t < transponders; ++t) {
    p.transponders.push_back(ctrl::transponder_info{
        t, static_cast<net::node_id>(g.below(n)), {prims[t % 3]}, 8e3});
  }
  const auto demand_count =
      static_cast<std::uint32_t>(args.get_int("demands", 16));
  for (std::uint32_t d = 0; d < demand_count; ++d) {
    ctrl::compute_demand dem;
    dem.id = d;
    dem.src = static_cast<net::node_id>(g.below(n));
    do {
      dem.dst = static_cast<net::node_id>(g.below(n));
    } while (dem.dst == dem.src);
    dem.chain = {prims[d % 3]};
    dem.rate_ops_s = 1e3 + static_cast<double>(g.below(4000));
    dem.value = 1.0;
    p.demands.push_back(dem);
  }

  const std::string solver = args.get("solver", "local");
  ctrl::allocation_result r;
  if (solver == "greedy") {
    r = ctrl::solve_greedy(p);
  } else if (solver == "exact") {
    r = ctrl::solve_exact(p);
  } else {
    r = ctrl::solve_local_search(p);
  }

  std::printf("solver     : %s\n", solver.c_str());
  std::printf("satisfied  : %.0f / %u demands\n", r.satisfied_value,
              demand_count);
  std::printf("transponders used : %zu / %u\n", r.transponders_used,
              transponders);
  std::printf("total path delay  : %.2f ms\n", r.total_delay_s * 1e3);
  const auto routes = ctrl::routes_for_allocation(p, r);
  std::printf("route entries     : %zu\n", routes.size());
  const auto paths = ctrl::lightpaths_for_allocation(p, r);
  const auto rwa = ctrl::assign_wavelengths_first_fit(topo, paths, 96);
  std::printf("RWA               : %zu lightpaths, %d wavelengths (bound %zu), %zu blocked\n",
              paths.size(), rwa.wavelengths_used, rwa.max_congestion,
              rwa.blocked);
  return 0;
}

int cmd_primitives(const cli_args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  // P1
  phot::dot_product_unit unit({}, seed);
  phot::rng g(seed ^ 0x77);
  std::vector<double> a(64), b(64);
  for (double& v : a) v = g.uniform();
  for (double& v : b) v = g.uniform();
  const double exact = std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
  const auto dot = unit.dot_unit_range(a, b);
  std::printf("P1 dot(64)   : %.4f vs exact %.4f (err %.4f), %.0f ns\n",
              dot.value, exact, dot.value - exact, dot.latency_s * 1e9);
  // P2
  phot::pattern_matcher matcher({}, seed);
  std::vector<std::uint8_t> bits(64);
  for (auto& v : bits) v = static_cast<std::uint8_t>(g.below(2));
  auto flipped = bits;
  flipped[5] ^= 1;
  std::printf("P2 match(64) : exact matched=%d, 1-flip matched=%d (frac %.4f)\n",
              matcher.match_bits(bits, bits).matched,
              matcher.match_bits(bits, flipped).matched,
              matcher.match_bits(bits, flipped).mismatch_fraction);
  // P3
  phot::nonlinear_unit nl({}, seed);
  std::printf("P3 transfer  : f(0.25)=%.4f f(0.5)=%.4f f(1.0)=%.4f (normalized)\n",
              nl.activate(0.25, 10.0), nl.activate(0.5, 10.0),
              nl.activate(1.0, 10.0));
  return 0;
}

void usage() {
  std::printf(
      "usage: onfiber_cli <simulate|allocate|primitives> [--options]\n"
      "  simulate   --topology fig1|uswan|linear:N|waxman:N --sites N\n"
      "             --requests N --dim N [--spread] [--seed S]\n"
      "  allocate   --topology ... --transponders N --demands N\n"
      "             [--solver greedy|local|exact] [--seed S]\n"
      "  primitives [--seed S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const cli_args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "allocate") return cmd_allocate(args);
    if (cmd == "primitives") return cmd_primitives(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return 1;
}
