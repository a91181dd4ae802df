// E25 — §3's RWA substrate ([10], [67]): wavelength provisioning for the
// compute lightpaths the allocator produces.
//
// Wavelengths needed vs demand count on the US-WAN, first-fit quality vs
// the congestion lower bound, and blocking vs grid size.
#include <cstdio>

#include "bench_util.hpp"
#include "controller/rwa.hpp"
#include "network/spf.hpp"
#include "network/topology.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

std::vector<ctrl::lightpath_request> random_requests(
    net::spf_engine& spf, std::size_t count, std::uint64_t seed) {
  const net::topology& topo = spf.topo();
  phot::rng g(seed);
  std::vector<ctrl::lightpath_request> reqs;
  std::uint32_t id = 0;
  while (reqs.size() < count) {
    const auto src = static_cast<net::node_id>(g.below(topo.node_count()));
    net::node_id dst;
    do {
      dst = static_cast<net::node_id>(g.below(topo.node_count()));
    } while (dst == src);
    auto path = spf.path(src, dst);
    if (path.size() < 2) continue;
    ctrl::lightpath_request r;
    r.id = id++;
    r.path = std::move(path);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

int main() {
  banner("E25 / Sec. 3 (RWA)", "wavelength assignment for compute lightpaths");

  const net::topology uswan = net::make_uswan_topology();
  net::spf_engine spf(uswan);

  // ---- wavelengths vs demand count -----------------------------------------
  note("US-WAN, random lightpaths, first-fit vs congestion lower bound");
  std::printf("  %12s %16s %18s %10s\n", "lightpaths", "wavelengths",
              "congestion bound", "blocked");
  for (const std::size_t count : {10u, 40u, 160u, 640u}) {
    const auto reqs = random_requests(spf, count, 7);
    const auto r = ctrl::assign_wavelengths_first_fit(uswan, reqs, 512);
    std::printf("  %12zu %16d %18zu %10zu\n", count, r.wavelengths_used,
                r.max_congestion, r.blocked);
  }

  // ---- blocking vs grid size ------------------------------------------------
  note("");
  note("blocking vs C-band grid size (160 lightpaths)");
  std::printf("  %14s %12s %14s\n", "wavelengths", "blocked",
              "service rate");
  const auto reqs = random_requests(spf, 160, 7);
  for (const int grid : {8, 16, 32, 64, 96}) {
    const auto r = ctrl::assign_wavelengths_first_fit(uswan, reqs, grid);
    std::printf("  %14d %12zu %13.1f%%\n", grid, r.blocked,
                100.0 * (1.0 - static_cast<double>(r.blocked) / 160.0));
  }

  // ---- end to end with the allocator ------------------------------------------
  note("");
  note("allocator -> lightpaths -> RWA (compute demands with site detours)");
  {
    ctrl::allocation_problem p;
    p.topo = &uswan;
    for (std::uint32_t t = 0; t < 6; ++t) {
      p.transponders.push_back(ctrl::transponder_info{
          t, static_cast<net::node_id>((t * 2 + 1) % uswan.node_count()),
          {proto::primitive_id::p1_p3_dnn}, 1e6});
    }
    phot::rng g(11);
    for (std::uint32_t i = 0; i < 24; ++i) {
      ctrl::compute_demand d;
      d.id = i;
      d.src = static_cast<net::node_id>(g.below(uswan.node_count()));
      do {
        d.dst = static_cast<net::node_id>(g.below(uswan.node_count()));
      } while (d.dst == d.src);
      d.chain = {proto::primitive_id::p1_p3_dnn};
      d.rate_ops_s = 1e3;
      d.value = 1.0;
      p.demands.push_back(d);
    }
    const auto alloc = ctrl::solve_local_search(p);
    const auto paths = ctrl::lightpaths_for_allocation(p, alloc);
    const auto r = ctrl::assign_wavelengths_first_fit(uswan, paths, 96);
    std::printf("  %zu demands satisfied -> %zu lightpaths, %d wavelengths"
                " (bound %zu), %zu blocked\n",
                static_cast<std::size_t>(alloc.satisfied_value), paths.size(),
                r.wavelengths_used, r.max_congestion, r.blocked);
  }

  std::printf("\n");
  return 0;
}
