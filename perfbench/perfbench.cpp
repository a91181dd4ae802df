// perfbench.cpp — the end-to-end benchmark's workloads.
//
// Runs one named workload through the public APIs (onfiber_runtime,
// shard_engine, workload_plane, photonic_engine, spf_engine) again and
// again until a wall-clock budget is spent. Every repetition rebuilds the
// whole system from scratch with the same seed, so each one measures
// set-up and the event run anew, and the simulated-time results of all
// repetitions must agree bit for bit.
//
//   onfiber_perfbench --workload fig1_infer|ids_overload|flap_recover
//                     --seed N --seconds S [--min-reps R]
//
// Output, one JSON object per line: a {"rep": ...} line per repetition
// and a final {"env": ...} stamp. run.py turns these into the benchmark's
// metrics. Tracing follows ONFIBER_TRACE, as everywhere in the library:
// with it on, each repetition also reads the src/obs counters and
// histograms, times the benchmark's own callbacks and replays the
// workload's first requests through a stand-alone photonic_engine.
//
// Every delivered result is checked against a digital reference (the
// float model's prediction for DNN requests, the exact ternary match for
// P2 requests), and accounting identities are checked at the end of each
// repetition; violations are listed in the rep line.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "apps/ml_inference.hpp"
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "network/workload.hpp"
#include "obs/metrics.hpp"
#include "photonics/energy.hpp"
#include "photonics/kernels.hpp"
#include "photonics/rng.hpp"
#include "photonics/simd.hpp"
#include "protocol/compute_header.hpp"

using namespace onfiber;

namespace {

using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

// ------------------------------------------------------------ parameters
//
// Rates are fixed against the analytic capacity of the sites they load
// (README.md derives each one).

namespace fig1 {
constexpr double kHorizonS = 4.0;
/// Site C's analog units run 2000x below the 10 GBd default: ~195 us per
/// inference, a capacity of ~5100 req/s.
constexpr double kDnnSlowdown = 2000.0;
constexpr double kDnnRate = 4100.0;    // ~0.8x site C's capacity
constexpr double kMatchRate = 1000.0;  // light classification load at B
constexpr double kSloS = 0.005;
}  // namespace fig1

namespace ids {
constexpr std::size_t kNodes = 16;
constexpr std::size_t kWordBytes = 16;
/// 2e5 symbols/s: 0.64 ms per 128-bit evaluation, 1562 req/s per site.
constexpr double kMatchSlowdown = 5e4;
constexpr std::size_t kQueueBound = 64;
constexpr double kLoad = 2.0;  // x the two sites' combined capacity
constexpr double kHorizonS = 6.0;
/// The latency limit is this margin over the admission bound's analytic
/// worst case: a full queue of kQueueBound evaluations plus the chain's
/// end-to-end propagation delay (~58 ms). Under this overload nearly
/// every served request waits a full queue, so slo_attain equals
/// served_frac for as long as the bound holds, and falls below it when
/// served requests wait longer than the bound allows.
constexpr double kSloMargin = 1.2;
constexpr std::size_t kShards = 2;
}  // namespace ids

namespace flap {
constexpr std::size_t kNodes = 240;
constexpr std::uint64_t kTopologySeed = 2023;
constexpr double kWaxmanAlpha = 0.08;
constexpr double kTaskRate = 400.0;    // reliable tasks per second
constexpr double kFlapPeriodS = 0.05;  // one link outage started per period
constexpr double kOutageMinS = 0.02;
constexpr double kOutageMaxS = 0.06;
constexpr double kReconvergeS = 0.005;
constexpr double kReconvergeJitterS = 0.001;
constexpr double kBer = 1e-6;
constexpr std::size_t kBackgroundInjectors = 6;
constexpr double kHorizonS = 12.0;
constexpr double kSloS = 0.150;
}  // namespace flap

/// Lowest agreement with the digital references a correct run may show.
constexpr double kMinAccuracy = 0.95;
/// Requests captured per injector for the traced replay.
constexpr std::size_t kReplayRequests = 200;
/// Set-up is repeated within a repetition until this much of it has been
/// timed, so workloads with millisecond set-up still report a median
/// over enough samples to sit above timer and page-fault noise.
constexpr double kSetupSampleS = 0.05;
constexpr int kMaxSetupsPerRep = 50;

// ------------------------------------------------------------- helpers

/// Engine whose analog units all run `slowdown` times below the default
/// symbol rate. The laser linewidths shrink by the same factor, so the
/// per-symbol phase noise (2*pi*linewidth/symbol rate) is unchanged and
/// only the time scale moves.
core::engine_config slowed_engine(double slowdown) {
  core::engine_config c;
  c.dot.symbol_rate_hz /= slowdown;
  c.dot.laser.linewidth_hz /= slowdown;
  c.match.symbol_rate_hz /= slowdown;
  c.match.laser.linewidth_hz /= slowdown;
  c.nonlinear.symbol_rate_hz /= slowdown;
  return c;
}

/// The 16-12-4 photonic-aware MLP of examples/wan_inference.cpp, on the
/// same synthetic dataset (25 samples per class).
struct model_bundle {
  digital::dataset data;
  digital::dnn_model model;
  core::dnn_task task;
};

model_bundle make_model() {
  model_bundle b;
  b.data = digital::make_synthetic_dataset(16, 4, 25, 0.08, 7);
  b.model = digital::train_mlp(b.data, {12}, 40, 0.08, 11,
                               digital::activation_kind::photonic_sin2, 2.0);
  b.task = apps::to_photonic_task(b.model);
  return b;
}

/// The float model's class for every sample (the DNN reference).
std::vector<std::uint8_t> reference_classes(const model_bundle& b) {
  std::vector<std::uint8_t> out(b.data.samples.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        digital::argmax(digital::infer_reference(b.model, b.data.samples[i])));
  }
  return out;
}

core::match_task ternary_task(
    const std::vector<std::vector<std::uint8_t>>& words) {
  core::match_task t;
  for (const auto& w : words) {
    t.patterns.push_back(phot::to_ternary(phot::bytes_to_bits(w)));
  }
  return t;
}

/// Exact digital priority match of `data` against ternary patterns (the
/// P2 reference).
std::uint8_t digital_match(const std::vector<std::uint8_t>& data,
                           const core::match_task& task) {
  const auto bits = phot::bytes_to_bits(data);
  for (std::size_t pi = 0; pi < task.patterns.size(); ++pi) {
    const auto& p = task.patterns[pi];
    if (p.size() != bits.size()) continue;
    bool hit = true;
    for (std::size_t i = 0; i < p.size() && hit; ++i) {
      hit = p[i] == phot::tbit::wildcard ||
            static_cast<std::uint8_t>(p[i]) == bits[i];
    }
    if (hit) return static_cast<std::uint8_t>(pi);
  }
  return core::match_no_hit;
}

/// Task ids carry their injector in the top bits so they stay unique
/// across injectors; request contents are pure functions of
/// (seed, task id), so the observer can rebuild the expected answer.
std::uint32_t task_id_of(std::uint32_t injector, std::uint64_t seq) {
  return injector << 28 | static_cast<std::uint32_t>(seq & 0x0fffffffu);
}

std::uint32_t injector_of(std::uint32_t task_id) { return task_id >> 28; }

phot::counter_rng request_stream(std::uint64_t seed, std::uint64_t salt,
                                 std::uint32_t task_id) {
  return phot::counter_rng(phot::counter_rng::key_of(seed, salt, task_id));
}

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// CPUs this process may run on (its affinity mask).
std::size_t cpu_affinity() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return 1;
}

/// Kernel threads of the live compute sites. They run their kernels
/// inline: a pool that needs every CPU for each 12-row layer turns the run
/// time into a measure of the neighbours' load on a shared host. The
/// pool's cost is measured by its own replay instead (replay_dnn_kernel).
constexpr std::size_t kSiteKernelThreads = 1;

/// Participants of the kernel pool's own default, within this process's
/// CPUs.
std::size_t pool_threads() {
  return std::min(cpu_affinity(), phot::kernel_thread_count());
}

template <typename F>
double timed(F&& f) {
  const auto t0 = clk::now();
  f();
  return seconds_since(t0);
}

/// The host probe's own generator (xorshift64*), so that no change to the
/// library's generators can move the probe.
class probe_rng {
 public:
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 32) * n >> 32);
  }

 private:
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dULL;
  }
  std::uint64_t s_ = 0x9b0be;
};

/// Fixed reference work that measures how fast this host runs right now.
/// It is the benchmark's own code, never the library's, and mixes what
/// the simulator spends its time on: scalar transcendental math, a binary
/// heap of timestamped events, and hash-map traffic. Returns the fastest
/// of three passes (~5.5 ms each on a 4-core Xeon). Its ~2 MB of buffers are
/// freed on return, and it runs only while no scenario is alive, so it
/// does not raise the high-water mark behind peak_rss_mb.
double host_probe_s() {
  constexpr std::uint32_t kN = 40'000;
  constexpr std::size_t kHeapDepth = 4096;
  using event = std::pair<double, std::uint32_t>;
  std::vector<event> heap;
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  heap.reserve(kHeapDepth + 1);
  table.reserve(2 * kN);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    heap.clear();
    table.clear();
    const auto t0 = clk::now();
    probe_rng r;
    double acc = 0.0;
    for (std::uint32_t i = 0; i < kN; ++i) {
      const double x = r.uniform() + 0.5;
      acc += std::sin(x) * std::exp(-x) + std::sqrt(x) + std::log(x);
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      heap.emplace_back(r.uniform(), i);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      if (heap.size() > kHeapDepth) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        acc += heap.back().first;
        heap.pop_back();
      }
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      table[r.below(kN)] += i;
      acc += static_cast<double>(table.count(r.below(kN)));
    }
    volatile double sink = acc;
    (void)sink;
    const double t = seconds_since(t0);
    best = pass == 0 ? t : std::min(best, t);
  }
  return best;
}

// ---------------------------------------------------------- measurement

/// Per-shard observer state (single writer: the delivering shard).
struct alignas(64) observer_bucket {
  std::uint64_t deliveries = 0;   ///< every non-ack delivery
  std::uint64_t served = 0;       ///< requests delivered with a result
  std::uint64_t uncomputed = 0;   ///< compute requests delivered raw
  std::uint64_t agree = 0;        ///< served results matching the reference
  std::uint64_t undecodable = 0;  ///< results that failed to decode
  std::uint64_t within_slo = 0;
  std::vector<double> latencies;
  /// Workload-specific counts; each scenario names its slots.
  std::array<std::uint64_t, 6> tally{};
  double host_s = 0.0;

  void serve(double latency_s, double slo_s, bool agrees) {
    ++served;
    latencies.push_back(latency_s);
    if (latency_s <= slo_s) ++within_slo;
    if (agrees) ++agree;
  }
};

/// Per-injector packet-factory state (single writer: the ingress shard).
struct alignas(64) factory_bucket {
  std::uint64_t emitted = 0;
  double host_s = 0.0;
  std::vector<net::packet> captured;  ///< first requests, for the replay
};

struct setup_times {
  double total_s = 0.0, model_s = 0.0, runtime_s = 0.0, deploy_s = 0.0,
         routes_s = 0.0, workload_s = 0.0;
};

struct rep_output {
  std::map<std::string, double> sim;   ///< deterministic, every mode
  std::map<std::string, double> obs;   ///< deterministic, traced only
  std::map<std::string, double> host;  ///< wall-clock readings
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

struct replay_result {
  std::uint64_t requests = 0;  ///< through a stand-alone photonic_engine
  std::uint64_t computed = 0;
  double host_s = 0.0;
  double joules = 0.0;
  std::uint64_t kernel_calls = 0;  ///< straight into a sample-plane kernel
  double kernel_host_s = 0.0;      ///< ... run inline
  double pool_host_s = 0.0;        ///< ... the same calls on the pool
  std::uint64_t pool_dispatches = 0;
  std::uint64_t pool_rows = 0;
};

/// Replays captured requests through a ledger-attached stand-alone engine
/// configured like the site that served them.
void replay_into(replay_result& r, const std::vector<net::packet>& reqs,
                 const core::engine_config& config,
                 const std::function<void(core::photonic_engine&)>& configure) {
  if (reqs.empty()) return;
  phot::energy_ledger ledger;
  core::photonic_engine e(config, 4242, &ledger);
  configure(e);
  e.set_threads(kSiteKernelThreads);
  std::vector<net::packet> copies = reqs;
  const auto t0 = clk::now();
  for (net::packet& p : copies) {
    if (e.process(p).computed) ++r.computed;
  }
  r.host_s += seconds_since(t0);
  r.requests += copies.size();
  r.joules += ledger.total_joules();
}

/// Replays DNN requests straight into the sample-plane GEMV kernel: each
/// layer of each request runs as one vector_matrix_engine::gemv_signed
/// call on the float model's input to that layer, once inline and once
/// on the kernel pool at its default size.
void replay_dnn_kernel(replay_result& r, const model_bundle& mb,
                       const std::vector<std::size_t>& samples,
                       const phot::dot_product_config& dot) {
  std::vector<std::pair<const phot::matrix*, std::vector<double>>> calls;
  for (const std::size_t s : samples) {
    std::vector<double> act = mb.data.samples[s];
    for (const auto& layer : mb.model.layers) {
      calls.emplace_back(&layer.weights, act);
      std::vector<double> next = phot::gemv_reference(layer.weights, act);
      for (std::size_t i = 0; i < next.size(); ++i) {
        next[i] += layer.bias[i];
        if (layer.relu) {
          next[i] = digital::apply_activation(mb.model.activation, next[i],
                                              mb.model.activation_scale);
        }
        next[i] = std::clamp(next[i], -1.0, 1.0);
      }
      act = std::move(next);
    }
  }
  const auto replay = [&calls, &dot](std::size_t threads) {
    phot::vector_matrix_engine kernel(dot, 4243);
    kernel.set_threads(threads);
    const auto t0 = clk::now();
    for (const auto& [w, x] : calls) (void)kernel.gemv_signed(*w, x);
    return seconds_since(t0);
  };
  r.kernel_host_s += replay(1);
  r.kernel_calls += calls.size();
  auto& reg = obs::registry::global();
  const std::uint64_t d0 = reg.get_counter("pool.dispatches").value();
  const std::uint64_t rows0 = reg.get_counter("pool.rows").value();
  r.pool_host_s += replay(pool_threads());
  r.pool_dispatches += reg.get_counter("pool.dispatches").value() - d0;
  r.pool_rows += reg.get_counter("pool.rows").value() - rows0;
}

/// Replays P2 words straight into the pattern matcher: optical encoding
/// of the word, then one match per equal-length pattern.
void replay_match_kernel(replay_result& r,
                         const std::vector<std::vector<std::uint8_t>>& words,
                         const core::match_task& task,
                         const phot::pattern_match_config& config) {
  std::vector<std::vector<std::uint8_t>> bits;
  for (const auto& w : words) bits.push_back(phot::bytes_to_bits(w));
  phot::pattern_matcher kernel(config, 4244);
  const auto t0 = clk::now();
  for (const auto& b : bits) {
    const phot::waveform wave = kernel.encode_bits_to_optical(b);
    for (const auto& p : task.patterns) {
      if (p.size() != b.size()) continue;
      (void)kernel.match_optical(wave, p);
      ++r.kernel_calls;
    }
  }
  r.kernel_host_s += seconds_since(t0);
}

struct obs_snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<double, double>> hists;  // count, sum
};

obs_snapshot read_obs() {
  obs_snapshot s;
  auto& reg = obs::registry::global();
  for (const char* name :
       {"fabric.hops", "fabric.delivered",
        "runtime.computed", "runtime.admission.admitted",
        "runtime.admission.deferred", "runtime.admission.dropped",
        "reliability.completed", "reliability.retransmits",
        "routing.routes_touched"}) {
    s.counters[name] = reg.get_counter(name).value();
  }
  for (const char* name :
       {"engine.process_wall_s", "engine.batch_wall_s",
        "routing.reconverge_ns"}) {
    const auto& h = reg.get_histogram(name);
    s.hists[name] = {static_cast<double>(h.count()), h.sum()};
  }
  return s;
}

// -------------------------------------------------------------- scenario

/// One workload instance: set up once, run once. Instances are heap
/// objects that never move, so the callbacks they install may capture
/// `this` and their members.
class scenario {
 public:
  virtual ~scenario() = default;

  /// Build the system up to its first event, timing each phase.
  virtual void setup(setup_times& st) = 0;

  /// Install the delivery observer and its digital references. Checking
  /// is the benchmark's work, so it happens outside the set-up timing.
  virtual void arm() = 0;

  /// Run the engine to completion and collect the repetition's metrics.
  rep_output run();

 protected:
  explicit scenario(std::uint64_t seed) : seed_(seed) {}

  /// Requests offered by the workload (after the run).
  [[nodiscard]] virtual std::uint64_t offered() const = 0;
  /// Workload-specific identities, given the summed observer buckets.
  virtual void account(rep_output& out, const observer_bucket& seen) = 0;
  /// Replay the captured requests (traced runs only).
  virtual void replay(replay_result& r) = 0;

  /// The engine and runtime every set-up starts from, plus one observer
  /// bucket per shard.
  void make_engine(std::size_t shards, net::topology topo) {
    shards_ = shards;
    engine_ = std::make_unique<net::shard_engine>(shards);
    rt_ = std::make_unique<core::onfiber_runtime>(*engine_, std::move(topo));
    observers_.resize(rt_->fabric().shard_count());
  }

  factory_bucket& new_factory_bucket() {
    factories_.push_back(std::make_unique<factory_bucket>());
    return *factories_.back();
  }

  /// A packet factory wrapped with emission counting, capture of the
  /// first requests for the replay and, while traced, self-timing.
  net::workload_plane::factory_fn wrap_factory(
      std::function<net::packet(const net::flow_packet_view&)> make,
      bool capture) {
    factory_bucket& bucket = new_factory_bucket();
    const bool traced = obs::enabled();
    return [&bucket, make = std::move(make), capture,
            traced](const net::flow_packet_view& v) {
      const auto t0 = traced ? clk::now() : clk::time_point{};
      net::packet pkt = make(v);
      ++bucket.emitted;
      if (capture && traced && bucket.captured.size() < kReplayRequests) {
        bucket.captured.push_back(pkt);
      }
      if (traced) bucket.host_s += seconds_since(t0);
      return pkt;
    };
  }

  /// Plain UDP packets of the flow's size (background traffic).
  net::workload_plane::factory_fn udp_factory() {
    return wrap_factory(
        [](const net::flow_packet_view& v) {
          net::packet p;
          p.src = v.src;
          p.dst = v.dst;
          p.proto = net::ip_proto::udp;
          p.payload.resize(v.payload_bytes);
          return p;
        },
        false);
  }

  /// Install the delivery observer: per-shard bucket and, while traced,
  /// self-timing around `classify`.
  void observe(std::function<void(observer_bucket&, const net::packet&,
                                  double)>
                   classify) {
    const bool traced = obs::enabled();
    net::wan_fabric& fabric = rt_->fabric();
    rt_->set_record_deliveries(false);
    rt_->set_delivery_observer(
        [this, &fabric, classify = std::move(classify), traced](
            const net::packet& pkt, net::node_id at, double now) {
          const auto t0 = traced ? clk::now() : clk::time_point{};
          observer_bucket& b = observers_[fabric.shard_of(at)];
          ++b.deliveries;
          classify(b, pkt, now);
          if (traced) b.host_s += seconds_since(t0);
        });
  }

  /// Summed observer buckets.
  [[nodiscard]] observer_bucket observed() const {
    observer_bucket sum;
    for (const observer_bucket& b : observers_) {
      sum.deliveries += b.deliveries;
      sum.served += b.served;
      sum.uncomputed += b.uncomputed;
      sum.agree += b.agree;
      sum.undecodable += b.undecodable;
      sum.within_slo += b.within_slo;
      sum.host_s += b.host_s;
      sum.latencies.insert(sum.latencies.end(), b.latencies.begin(),
                           b.latencies.end());
      for (std::size_t i = 0; i < b.tally.size(); ++i) {
        sum.tally[i] += b.tally[i];
      }
    }
    return sum;
  }

  std::uint64_t seed_;
  double horizon_s_ = 0.0;
  double slo_s_ = 0.0;
  std::size_t shards_ = 1;
  std::unique_ptr<net::shard_engine> engine_;
  std::unique_ptr<core::onfiber_runtime> rt_;
  std::unique_ptr<net::workload_plane> plane_;
  std::vector<observer_bucket> observers_;
  std::vector<std::unique_ptr<factory_bucket>> factories_;
  std::vector<net::node_id> sites_;
  /// Requests submitted outside the plane (reliable tasks).
  std::uint64_t submitted_ = 0;

 private:
  void finish_traced(rep_output& out, const obs_snapshot& before,
                     double run_s);
};

rep_output scenario::run() {
  const bool traced = obs::enabled();
  const obs_snapshot before = traced ? read_obs() : obs_snapshot{};
  const auto t_run = clk::now();
  const std::uint64_t events = engine_->run(500'000'000);
  const double run_s = seconds_since(t_run);

  rep_output out;
  core::onfiber_runtime& rt = *rt_;
  net::wan_fabric& fabric = rt.fabric();
  const observer_bucket seen = observed();
  const std::uint64_t n_offered = offered();
  const double offered_d = static_cast<double>(n_offered);
  const double served = static_cast<double>(seen.served);
  out.attempted = n_offered;
  out.failed = seen.undecodable;
  out.check(seen.undecodable == 0, "undecodable results delivered");
  // The analog engines are noisy, so a result may disagree with its
  // digital reference; a run whose agreement falls below the floor is
  // wrong, not merely slow.
  out.check(seen.served > 0 && static_cast<double>(seen.agree) >=
                                   kMinAccuracy * served,
            "accuracy below the floor");
  out.check(!engine_->overran(), "event budget exhausted");

  // End-to-end, simulated time.
  out.sim["goodput_rps"] = served / horizon_s_;
  out.sim["latency_p50_s"] = percentile(seen.latencies, 50.0);
  out.sim["latency_p99_s"] = percentile(seen.latencies, 99.0);
  out.sim["latency_samples"] = static_cast<double>(seen.latencies.size());
  out.sim["served_frac"] = offered_d > 0 ? served / offered_d : 0.0;
  out.sim["slo_attain"] =
      offered_d > 0 ? static_cast<double>(seen.within_slo) / offered_d : 0.0;
  out.sim["accuracy"] =
      served > 0 ? static_cast<double>(seen.agree) / served : 0.0;
  out.sim["offered"] = offered_d;
  out.sim["horizon_s"] = horizon_s_;
  out.sim["slo_s"] = slo_s_;

  // Per-layer counts kept by the runtime, fabric and engines themselves.
  const auto ad = rt.admission();
  const auto st = rt.stats();
  const auto& drops = fabric.drops();
  const auto& es = engine_->stats();
  const auto ps = plane_->stats();
  out.sim["core.admitted"] = static_cast<double>(ad.admitted);
  out.sim["core.deferred"] = static_cast<double>(ad.deferred);
  out.sim["core.dropped"] = static_cast<double>(ad.dropped);
  const double arrivals =
      static_cast<double>(ad.admitted + ad.deferred + ad.dropped);
  out.sim["core.admit_frac"] =
      arrivals > 0 ? static_cast<double>(ad.admitted) / arrivals : 0.0;
  out.sim["core.max_queue_depth"] = static_cast<double>(ad.max_queue_depth);
  double busiest = 0.0;
  for (const net::node_id s : sites_) {
    busiest = std::max(busiest, rt.site_busy_s(s));
  }
  out.sim["core.site_busy_frac"] = busiest / horizon_s_;
  out.sim["core.redirected"] = static_cast<double>(st.redirected);
  const auto rel = rt.reliability();
  out.sim["core.rel_completed_frac"] =
      rel.submitted > 0 ? static_cast<double>(rel.completed) /
                              static_cast<double>(rel.submitted)
                        : 0.0;
  out.sim["core.retransmits"] = static_cast<double>(rel.retransmits);
  out.sim["core.failovers"] = static_cast<double>(rel.failovers);
  out.sim["core.duplicates"] = static_cast<double>(rel.duplicate_deliveries);
  out.sim["core.useful_tx_frac"] =
      rel.submitted > 0 ? static_cast<double>(rel.completed) /
                              static_cast<double>(rel.submitted +
                                                  rel.retransmits)
                        : 0.0;
  out.sim["network.delivered"] = static_cast<double>(fabric.delivered());
  out.sim["network.drops.ttl_expired"] = static_cast<double>(drops.ttl_expired);
  out.sim["network.drops.link_down"] = static_cast<double>(drops.link_down);
  out.sim["network.drops.no_route"] = static_cast<double>(drops.no_route);
  out.sim["network.drops.hook_drop"] = static_cast<double>(drops.hook_drop);
  out.sim["network.drops.bad_redirect"] =
      static_cast<double>(drops.bad_redirect);
  out.sim["network.events"] = static_cast<double>(events);
  out.sim["network.windows"] = static_cast<double>(es.windows);
  out.sim["network.parcels"] = static_cast<double>(es.parcels);
  out.sim["network.reconvergences"] =
      static_cast<double>(fabric.reconvergences());
  out.sim["network.flows"] = static_cast<double>(ps.flows);
  out.sim["network.packets"] = static_cast<double>(ps.packets);
  out.sim["network.thinning_rejects"] =
      static_cast<double>(ps.thinning_rejects);
  out.sim["env.kernel_threads"] = static_cast<double>(kSiteKernelThreads);
  out.sim["env.pool_threads"] = static_cast<double>(pool_threads());
  out.sim["env.shards"] = static_cast<double>(shards_);

  // The serial site path admits exactly what it computes.
  out.check(ad.admitted == st.computed, "admitted != computed");
  out.check(st.malformed_dropped == 0 || rt.reliability_enabled(),
            "malformed compute packets without bit errors");
  std::uint64_t emitted = 0;
  double factory_s = 0.0;
  for (const auto& f : factories_) {
    emitted += f->emitted;
    factory_s += f->host_s;
  }
  out.check(emitted == ps.packets + submitted_,
            "factory emissions != plane packets + submissions");
  account(out, seen);

  // End-to-end, host time. Producer stalls depend on thread timing.
  out.host["run_s"] = run_s;
  out.host["bench.observer_host_s"] = seen.host_s;
  out.host["network.factory_host_s"] = factory_s;
  out.host["network.producer_stalls"] =
      static_cast<double>(es.producer_stalls);

  if (traced) {
    finish_traced(out, before, run_s);
    replay_result r;
    replay(r);
    out.obs["core.replay_requests"] = static_cast<double>(r.requests);
    out.host["core.replay_us_per_request"] =
        r.requests > 0 ? r.host_s / static_cast<double>(r.requests) * 1e6
                       : 0.0;
    // Replay joules are deterministic: the replay engine's noise is seeded.
    out.obs["photonics.j_per_result"] =
        r.computed > 0 ? r.joules / static_cast<double>(r.computed) : 0.0;
    out.obs["photonics.kernel_calls"] = static_cast<double>(r.kernel_calls);
    out.obs["photonics.pool_dispatches"] =
        static_cast<double>(r.pool_dispatches);
    out.obs["photonics.rows_per_dispatch"] =
        r.pool_dispatches > 0 ? static_cast<double>(r.pool_rows) /
                                    static_cast<double>(r.pool_dispatches)
                              : 0.0;
    out.host["photonics.kernel_us_per_call"] =
        r.kernel_calls > 0
            ? r.kernel_host_s / static_cast<double>(r.kernel_calls) * 1e6
            : 0.0;
    out.host["photonics.pool_overhead_frac"] =
        r.pool_host_s > 0 ? r.pool_host_s / r.kernel_host_s - 1.0 : 0.0;
  }
  out.host["peak_rss_mb"] = vm_hwm_mib();
  return out;
}

/// Traced-only: src/obs readings for the run and their cross-checks
/// against the runtime's and fabric's own counters.
void scenario::finish_traced(rep_output& out, const obs_snapshot& before,
                             double run_s) {
  const obs_snapshot after = read_obs();
  const auto hist = [&](const char* h) {
    const auto& a = after.hists.at(h);
    const auto& b = before.hists.at(h);
    return std::pair<double, double>{a.first - b.first, a.second - b.second};
  };
  const auto counter = [&](const char* n) {
    return after.counters.at(n) - before.counters.at(n);
  };
  const auto proc = hist("engine.process_wall_s");
  const auto batch = hist("engine.batch_wall_s");
  out.obs["core.engine_calls"] = proc.first + batch.first;
  out.obs["network.hops"] = static_cast<double>(counter("fabric.hops"));
  // Routing work counts from the start of set-up (the registry is reset
  // there): the initial full install plus every reconvergence.
  out.obs["network.routes_touched"] =
      static_cast<double>(after.counters.at("routing.routes_touched"));
  const double engine_s = proc.second + batch.second;
  out.host["core.engine_host_s"] = engine_s;
  out.host["network.reconverge_host_s"] =
      after.hists.at("routing.reconverge_ns").second * 1e-9;
  // The fabric's self time: the run minus the engine calls made from its
  // hooks and the benchmark's own callbacks. Those times are summed over
  // the shard threads, so they come off shard-thread time, not wall time;
  // with more than one shard the remainder also holds the window-barrier
  // waits.
  double own_s = 0.0;
  for (const auto& b : observers_) own_s += b.host_s;
  for (const auto& f : factories_) own_s += f->host_s;
  out.host["network.self_host_s"] =
      static_cast<double>(shards_) * run_s - engine_s - own_s;

  const core::onfiber_runtime& rt = *rt_;
  const auto ad = rt.admission();
  const auto rel = rt.reliability();
  out.check(counter("fabric.delivered") == rt.fabric().delivered(),
            "obs fabric.delivered != fabric stats");
  out.check(counter("runtime.computed") == rt.stats().computed,
            "obs runtime.computed != runtime stats");
  out.check(counter("runtime.admission.admitted") == ad.admitted &&
                counter("runtime.admission.deferred") == ad.deferred &&
                counter("runtime.admission.dropped") == ad.dropped,
            "obs admission counters != runtime stats");
  out.check(counter("reliability.completed") == rel.completed &&
                counter("reliability.retransmits") == rel.retransmits,
            "obs reliability counters != runtime stats");
}

/// Single-packet flows at `rate_fps`: a Poisson request stream.
net::flow_class request_class(double rate_fps) {
  net::flow_class fc;
  fc.flow_rate_fps = rate_fps;
  fc.mice_fraction = 1.0;
  fc.mice = {1.3, 1.0, 1.5};
  fc.mtu_bytes = 64;
  return fc;
}

// ------------------------------------------------------------ fig1_infer

/// The paper's Fig. 1: image recognition (DNN) at site C and packet
/// classification (P2) at site B, requests from A to D, one shard.
class fig1_infer final : public scenario {
 public:
  explicit fig1_infer(std::uint64_t seed) : scenario(seed) {
    horizon_s_ = fig1::kHorizonS;
    slo_s_ = fig1::kSloS;
    sites_ = {kSiteB, kSiteC};
  }

  void setup(setup_times& st) override {
    st.model_s = timed([&] {
      mb_ = make_model();
      classifier_ = ternary_task(kClasses);
    });
    st.runtime_s = timed([&] { make_engine(1, net::make_figure1_topology()); });
    st.deploy_s = timed([&] {
      rt_->deploy_engine(kSiteB, {}, 11).configure_match(classifier_);
      auto& c = rt_->deploy_engine(kSiteC, dnn_config(), 12);
      c.configure_dnn(mb_.task);
      c.set_threads(kSiteKernelThreads);
    });
    st.routes_s =
        timed([&] { rt_->install_compute_routes_via_nearest_site(); });
    st.workload_s = timed([&] {
      net::wan_fabric& fabric = rt_->fabric();
      const net::ipv4 src = fabric.topo().node_at(0).address;
      const net::ipv4 dst = fabric.topo().node_at(3).address;
      net::workload_config cfg;
      cfg.seed = seed_;
      cfg.tenants = {request_class(fig1::kDnnRate),
                     request_class(fig1::kMatchRate)};
      plane_ = std::make_unique<net::workload_plane>(fabric, cfg);
      plane_->add_injector(
          {0, dst, 0,
           wrap_factory(
               [this, src, dst](const net::flow_packet_view& v) {
                 const std::uint32_t id = task_id_of(0, v.flow_seq);
                 net::packet p = core::make_dnn_request(
                     src, dst, mb_.data.samples[sample_of(id)],
                     mb_.model.output_dim(), id);
                 p.flow_hash = v.flow_hash;
                 return p;
               },
               true)});
      plane_->add_injector(
          {0, dst, 1,
           wrap_factory(
               [this, src, dst](const net::flow_packet_view& v) {
                 const std::uint32_t id = task_id_of(1, v.flow_seq);
                 net::packet p =
                     core::make_match_request(src, dst, word_of(id), id);
                 p.flow_hash = v.flow_hash;
                 return p;
               },
               true)});
      plane_->start(horizon_s_);
    });
  }

  void arm() override {
    ref_ = reference_classes(mb_);
    observe([this](observer_bucket& b, const net::packet& pkt, double now) {
      const auto h = proto::peek_compute_header(pkt);
      if (!h) return;
      if (!h->has_result()) {
        ++b.uncomputed;
        return;
      }
      const double latency = now - pkt.created_s;
      if (h->primitive == proto::primitive_id::p1_p3_dnn) {
        const auto r = core::read_dnn_result(pkt);
        if (!r) {
          ++b.undecodable;
          return;
        }
        ++b.tally[kServedDnn];
        b.serve(latency, slo_s_,
                r->predicted_class == ref_[sample_of(h->task_id)]);
        return;
      }
      const auto r = core::read_match_result(pkt);
      if (!r) {
        ++b.undecodable;
        return;
      }
      ++b.tally[kServedP2];
      b.serve(latency, slo_s_,
              *r == digital_match(word_of(h->task_id), classifier_));
    });
  }

 protected:
  std::uint64_t offered() const override { return plane_->stats().packets; }

  void account(rep_output& out, const observer_bucket& seen) override {
    const net::wan_fabric& fabric = rt_->fabric();
    const auto ad = rt_->admission();
    const std::uint64_t dnn = seen.tally[kServedDnn];
    const std::uint64_t p2 = seen.tally[kServedP2];
    out.check(offered() == seen.served + seen.uncomputed + fabric.dropped(),
              "offered != served + uncomputed + dropped");
    out.check(seen.deliveries == fabric.delivered(),
              "observer deliveries != fabric delivered");
    // One primitive per site: C's arrivals are the DNN requests and B's
    // the P2 requests; nothing overflows at these loads, so each site
    // admits every arrival.
    out.check(ad.deferred == 0 && ad.dropped == 0, "fig1 shed load");
    out.check(plane_->injector_stats(0).packets == dnn &&
                  plane_->injector_stats(1).packets == p2 &&
                  ad.admitted == dnn + p2,
              "per-site arrivals != admitted + deferred + dropped");
    out.check(fabric.dropped() == 0, "fig1 dropped packets");
    out.failed += fabric.dropped();
  }

  void replay(replay_result& r) override {
    replay_into(r, factories_[0]->captured, dnn_config(),
                [this](core::photonic_engine& e) { e.configure_dnn(mb_.task); });
    replay_into(r, factories_[1]->captured, {},
                [this](core::photonic_engine& e) {
                  e.configure_match(classifier_);
                });
    std::vector<std::size_t> samples;
    for (const net::packet& p : factories_[0]->captured) {
      samples.push_back(sample_of(proto::peek_compute_header(p)->task_id));
    }
    replay_dnn_kernel(r, mb_, samples, dnn_config().dot);
  }

 private:
  static constexpr net::node_id kSiteB = 1, kSiteC = 2;
  enum tally_slot : std::size_t { kServedDnn, kServedP2 };
  inline static const std::vector<std::vector<std::uint8_t>> kClasses = {
      {0x48}, {0x11}};

  static core::engine_config dnn_config() {
    return slowed_engine(fig1::kDnnSlowdown);
  }
  std::size_t sample_of(std::uint32_t id) const {
    return static_cast<std::size_t>(
        request_stream(seed_, 0x5a3b1e, id).below(mb_.data.samples.size()));
  }
  /// One-byte words: a third carry each class byte, a third random bytes.
  std::vector<std::uint8_t> word_of(std::uint32_t id) const {
    auto r = request_stream(seed_, 0x9e11, id);
    const auto pick = r.below(6);
    if (pick < 4) return kClasses[pick / 2];
    return {static_cast<std::uint8_t>(r.below(256))};
  }

  model_bundle mb_;
  core::match_task classifier_;
  std::vector<std::uint8_t> ref_;
};

// ---------------------------------------------------------- ids_overload

/// The bench_ext_traffic scenario at 2x overload: P2 signature matching
/// at nodes 5 and 10 of a 16-node chain, requests from both ends with
/// flow_spread steering, a defer-on-overflow queue bound, heavy-tailed
/// UDP background and microbursts, two shards.
class ids_overload final : public scenario {
 public:
  explicit ids_overload(std::uint64_t seed) : scenario(seed) {
    horizon_s_ = ids::kHorizonS;
    sites_ = {kSiteA, kSiteB};
  }

  void setup(setup_times& st) override {
    st.model_s = timed([&] { classifier_ = ternary_task({signature()}); });
    st.runtime_s = timed(
        [&] { make_engine(ids::kShards, net::make_linear_topology(ids::kNodes)); });
    st.deploy_s = timed([&] {
      rt_->deploy_engine(kSiteA, match_config(), 21)
          .configure_match(classifier_);
      rt_->deploy_engine(kSiteB, match_config(), 22)
          .configure_match(classifier_);
    });
    st.routes_s = timed([&] {
      rt_->install_compute_routes_via_nearest_site();
      rt_->set_steering_policy(
          core::onfiber_runtime::steering_policy::flow_spread);
      rt_->set_admission(
          {ids::kQueueBound,
           core::onfiber_runtime::admission_config::overflow_policy::defer});
    });
    st.workload_s = timed([&] {
      net::flow_class compute;
      compute.mice_fraction = 1.0;
      compute.mice = {1.3, 64.0, 512.0};
      compute.mtu_bytes = 64;
      compute.min_packet_gap_s = 20e-6;
      compute.max_packet_gap_s = 200e-6;
      // Capacity: two sites, one evaluation each per service time; two
      // injectors share the load, each flow carrying ~mean/mtu packets.
      const double capacity_rps = 2.0 / service_s();
      const double pkts_per_flow =
          pareto_mean(compute.mice) / static_cast<double>(compute.mtu_bytes) +
          0.5;
      compute.flow_rate_fps =
          ids::kLoad * capacity_rps / (2.0 * pkts_per_flow);
      net::flow_class background;
      background.flow_rate_fps = 200.0;
      background.mice = {1.3, 256.0, 4096.0};
      background.elephants = {1.3, 8e3, 64e3};
      background.mtu_bytes = 512;

      net::workload_config cfg;
      cfg.seed = seed_;
      cfg.tenants = {compute, background};
      cfg.diurnal = {0.05, 0.5, 0.0};
      cfg.bursts = {50.0, 4e-3, 4.0};
      net::wan_fabric& fabric = rt_->fabric();
      plane_ = std::make_unique<net::workload_plane>(fabric, cfg);
      const auto addr = [&fabric](net::node_id n) {
        return fabric.topo().node_at(n).address;
      };
      plane_->add_injector({0, addr(kLast), 0, match_factory(0)});
      plane_->add_injector({kLast, addr(0), 0, match_factory(1)});
      plane_->add_injector({3, addr(12), 1, udp_factory()});
      plane_->start(horizon_s_);
    });
  }

  /// Per-site reconstruction on the chain: a request from node 0 meets
  /// site A first, one from the far end meets site B first, and a
  /// deferred request (flag_deferred) meets the other site next.
  void arm() override {
    const net::topology& topo = rt_->fabric().topo();
    slo_s_ = ids::kSloMargin *
             (static_cast<double>(ids::kQueueBound) * service_s() +
              topo.path_delay_s(topo.shortest_path(0, kLast)));
    observe([this](observer_bucket& b, const net::packet& pkt, double now) {
      if (pkt.proto != net::ip_proto::compute) return;
      const auto h = proto::peek_compute_header(pkt);
      if (!h) return;
      const std::size_t first = injector_of(h->task_id) == 0 ? 0 : 1;
      const std::size_t second = 1 - first;
      ++b.tally[kArrive + first];
      if ((h->flags & proto::flag_deferred) != 0) {
        ++b.tally[kDefer + first];
        ++b.tally[kArrive + second];
        ++b.tally[(h->has_result() ? kAdmit : kDefer) + second];
      } else if (h->has_result()) {
        ++b.tally[kAdmit + first];
      }
      if (!h->has_result()) {
        ++b.uncomputed;
        return;
      }
      const auto r = core::read_match_result(pkt);
      if (!r) {
        ++b.undecodable;
        return;
      }
      b.serve(now - pkt.created_s, slo_s_,
              *r == digital_match(word_of(h->task_id), classifier_));
    });
  }

 protected:
  std::uint64_t offered() const override {
    return plane_->injector_stats(0).packets +
           plane_->injector_stats(1).packets;
  }

  void account(rep_output& out, const observer_bucket& seen) override {
    const net::wan_fabric& fabric = rt_->fabric();
    const auto ad = rt_->admission();
    const auto& t = seen.tally;
    out.check(offered() == seen.served + seen.uncomputed + fabric.dropped(),
              "offered != served + uncomputed + dropped");
    out.check(seen.deliveries == fabric.delivered(),
              "observer deliveries != fabric delivered");
    out.check(fabric.dropped() == 0, "ids dropped packets");
    for (std::size_t site = 0; site < 2; ++site) {
      out.check(t[kArrive + site] == t[kAdmit + site] + t[kDefer + site],
                "site " + std::to_string(sites_[site]) +
                    ": arrivals != admitted + deferred + dropped");
    }
    out.check(t[kAdmit] + t[kAdmit + 1] == ad.admitted,
              "per-site admitted != runtime admitted");
    out.check(t[kDefer] + t[kDefer + 1] == ad.deferred,
              "per-site deferred != runtime deferred");
    out.check(ad.dropped == 0, "admission drops under the defer policy");
    // Every evaluation costs the same service time at both sites.
    if (t[kAdmit] > 0 && t[kAdmit + 1] > 0) {
      const double per_a =
          rt_->site_busy_s(kSiteA) / static_cast<double>(t[kAdmit]);
      const double per_b =
          rt_->site_busy_s(kSiteB) / static_cast<double>(t[kAdmit + 1]);
      out.check(std::fabs(per_a - per_b) <= 1e-9 * per_a,
                "per-site busy time != admitted x service time");
    }
    out.failed += fabric.dropped();
  }

  void replay(replay_result& r) override {
    replay_into(r, factories_[0]->captured, match_config(),
                [this](core::photonic_engine& e) {
                  e.configure_match(classifier_);
                });
    std::vector<std::vector<std::uint8_t>> words;
    for (const net::packet& p : factories_[0]->captured) {
      words.push_back(word_of(proto::peek_compute_header(p)->task_id));
    }
    replay_match_kernel(r, words, classifier_, match_config().match);
  }

 private:
  static constexpr net::node_id kSiteA = 5, kSiteB = 10,
                                kLast = ids::kNodes - 1;
  /// Tally slots: per-site counts, site A at +0 and site B at +1.
  enum tally_slot : std::size_t { kArrive = 0, kAdmit = 2, kDefer = 4 };

  static core::engine_config match_config() {
    return slowed_engine(ids::kMatchSlowdown);
  }
  /// One evaluation of a word at either site.
  static double service_s() {
    return static_cast<double>(ids::kWordBytes * 8) /
           match_config().match.symbol_rate_hz;
  }
  static std::vector<std::uint8_t> signature() {
    std::vector<std::uint8_t> sig(ids::kWordBytes);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      sig[i] = static_cast<std::uint8_t>(0xd0 + i);
    }
    return sig;
  }
  static double pareto_mean(const net::bounded_pareto& bp) {
    const double a = bp.alpha, lo = bp.lo_bytes, hi = bp.hi_bytes;
    const double norm = 1.0 - std::pow(lo / hi, a);
    return std::pow(lo, a) * (a / (a - 1.0)) *
           (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a)) / norm;
  }
  /// A third of the words carry the signature, the rest are random.
  std::vector<std::uint8_t> word_of(std::uint32_t id) const {
    auto r = request_stream(seed_, 0x1d5, id);
    if (r.below(3) == 0) return signature();
    std::vector<std::uint8_t> w(ids::kWordBytes);
    for (auto& x : w) x = static_cast<std::uint8_t>(r.below(256));
    return w;
  }
  net::workload_plane::factory_fn match_factory(std::uint32_t injector) {
    return wrap_factory(
        [this, injector](const net::flow_packet_view& v) {
          const std::uint32_t id = task_id_of(
              injector, v.flow_seq << 12 | (v.packet_index & 0xfffu));
          net::packet p = core::make_match_request(v.src, v.dst, word_of(id), id);
          p.flow_hash = v.flow_hash;
          return p;
        },
        injector == 0);
  }

  core::match_task classifier_;
};

// ---------------------------------------------------------- flap_recover

/// Reliable DNN tasks between random node pairs of a seeded Waxman WAN
/// with three compute sites, under periodic link flaps (5 ms
/// reconvergence plus jitter), BER 1e-6 and plain background, one shard.
class flap_recover final : public scenario {
 public:
  explicit flap_recover(std::uint64_t seed) : scenario(seed) {
    horizon_s_ = flap::kHorizonS;
    slo_s_ = flap::kSloS;
    const auto n = static_cast<net::node_id>(flap::kNodes);
    sites_ = {n / 6, n / 2, 5 * n / 6};
  }

  void setup(setup_times& st) override {
    st.model_s = timed([&] { mb_ = make_model(); });
    st.runtime_s = timed([&] {
      make_engine(1, net::make_waxman_topology(
                         flap::kNodes, flap::kTopologySeed, flap::kWaxmanAlpha));
    });
    st.deploy_s = timed([&] {
      std::uint64_t engine_seed = 31;
      for (const net::node_id at : sites_) {
        auto& e = rt_->deploy_engine(at, {}, engine_seed++);
        e.configure_dnn(mb_.task);
        e.set_threads(kSiteKernelThreads);
      }
    });
    st.routes_s =
        timed([&] { rt_->install_compute_routes_via_nearest_site(); });
    st.workload_s = timed([&] { schedule_workload(); });
  }

  void arm() override {
    ref_ = reference_classes(mb_);
    served_.assign(tasks_.size(), 0);
    failed_.assign(tasks_.size(), 0);
    rt_->set_task_failure_callback(
        [this](std::uint32_t id) { failed_.at(id) = 1; });
    observe([this](observer_bucket& b, const net::packet& pkt, double now) {
      if (pkt.proto != net::ip_proto::compute) return;
      const auto h = proto::peek_compute_header(pkt);
      if (!h || h->task_id >= tasks_.size()) return;
      if (!h->has_result() || served_[h->task_id]) return;  // raw or dupe
      const auto r = core::read_dnn_result(pkt);
      if (!r) {
        ++b.undecodable;
        return;
      }
      served_[h->task_id] = 1;
      const task& t = tasks_[h->task_id];
      b.serve(now - t.due_s, slo_s_, r->predicted_class == ref_[t.sample]);
    });
  }

 protected:
  std::uint64_t offered() const override { return tasks_.size(); }

  void account(rep_output& out, const observer_bucket& seen) override {
    const net::wan_fabric& fabric = rt_->fabric();
    const auto rel = rt_->reliability();
    const std::uint64_t in_flight = rt_->tasks_in_flight();
    std::uint64_t failed_unserved = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (!served_[i] && failed_[i]) ++failed_unserved;
    }
    out.check(rel.submitted == offered(), "submitted != offered");
    out.check(rel.completed + rel.failed + in_flight == rel.submitted,
              "submitted != completed + failed + in flight");
    // A task ends served, failed, or (never, after a drained run) in
    // flight; deferred-uncomputed and dropped copies are retried.
    out.check(offered() == seen.served + failed_unserved + in_flight,
              "offered != served + failed + in flight");
    out.check(seen.served >= rel.completed, "acked tasks without a delivery");
    // The observer sees every non-ack delivery; the rest are acks.
    const std::uint64_t delivered = fabric.delivered();
    out.check(seen.deliveries <= delivered &&
                  delivered - seen.deliveries >= rel.completed &&
                  delivered - seen.deliveries <= rel.acks_sent,
              "observer deliveries != fabric delivered - acks");
    const auto ad = rt_->admission();
    out.check(ad.deferred == 0 && ad.dropped == 0, "flap shed load");
    out.check(rel.failed == 0, "reliable tasks failed");
    out.failed += rel.failed;
  }

  void replay(replay_result& r) override {
    replay_into(r, factories_[0]->captured, {},
                [this](core::photonic_engine& e) { e.configure_dnn(mb_.task); });
    std::vector<std::size_t> samples;
    for (const net::packet& p : factories_[0]->captured) {
      samples.push_back(tasks_[proto::peek_compute_header(p)->task_id].sample);
    }
    replay_dnn_kernel(r, mb_, samples, phot::dot_product_config{});
  }

 private:
  struct task {
    double due_s = 0.0;
    net::node_id src = 0, dst = 0;
    std::uint32_t sample = 0;
  };

  void schedule_workload() {
    net::wan_fabric& fabric = rt_->fabric();
    const auto n = static_cast<net::node_id>(flap::kNodes);
    phot::counter_rng r(phot::counter_rng::key_of(seed_, 0xf1a9));
    // Poisson task arrivals between random node pairs, submitted on the
    // control-plane clock.
    for (double t = 0.0;;) {
      t += -std::log(1.0 - r.uniform()) / flap::kTaskRate;
      if (!(t < horizon_s_)) break;
      task k;
      k.due_s = t;
      k.src = static_cast<net::node_id>(r.below(n));
      do {
        k.dst = static_cast<net::node_id>(r.below(n));
      } while (k.dst == k.src);
      k.sample = static_cast<std::uint32_t>(r.below(mb_.data.samples.size()));
      tasks_.push_back(k);
    }
    submitted_ = tasks_.size();
    core::onfiber_runtime::reliability_config rc;
    rc.initial_rto_s = 0.1;
    rc.backoff = 2.0;
    rc.max_retries = 8;
    rc.failover_after = 2;
    rt_->enable_reliability(rc);
    factory_bucket& bucket = new_factory_bucket();
    const bool traced = obs::enabled();
    for (std::uint32_t id = 0; id < tasks_.size(); ++id) {
      engine_->schedule_global(tasks_[id].due_s, [this, &bucket, id, traced] {
        const auto t0 = traced ? clk::now() : clk::time_point{};
        const task& k = tasks_[id];
        const auto& topo = rt_->fabric().topo();
        net::packet pkt = core::make_dnn_request(
            topo.node_at(k.src).address, topo.node_at(k.dst).address,
            mb_.data.samples[k.sample], mb_.model.output_dim(), id);
        ++bucket.emitted;
        if (traced && bucket.captured.size() < kReplayRequests) {
          bucket.captured.push_back(pkt);
        }
        if (traced) bucket.host_s += seconds_since(t0);
        rt_->submit_reliable(std::move(pkt), k.src);
      });
    }

    // Periodic outages: each period one link fails for a drawn time,
    // alternating between a link of a compute site and any link.
    std::vector<std::size_t> site_links;
    for (const net::node_id s : sites_) {
      for (const std::size_t li : fabric.topo().incident_links(s)) {
        site_links.push_back(li);
      }
    }
    const std::size_t n_links = fabric.topo().links().size();
    std::vector<net::wan_fabric::link_flap> flaps;
    std::vector<double> down_until(n_links, -1.0);
    std::size_t k = 0;
    for (double t = flap::kFlapPeriodS / 2; t < horizon_s_;
         t += flap::kFlapPeriodS, ++k) {
      const std::size_t li = k % 2 == 0
                                 ? site_links[r.below(site_links.size())]
                                 : static_cast<std::size_t>(r.below(n_links));
      const double len = flap::kOutageMinS +
                         r.uniform() * (flap::kOutageMaxS - flap::kOutageMinS);
      if (t <= down_until[li]) continue;  // that link is still down
      down_until[li] = t + len;
      flaps.push_back({li, t, t + len});
    }
    fabric.schedule_flaps(flaps, flap::kReconvergeS, seed_,
                          flap::kReconvergeJitterS);
    fabric.set_bit_error_rate(flap::kBer, seed_ ^ 0xbe7);

    // Plain background traffic between random node pairs.
    net::flow_class background;
    background.flow_rate_fps = 60.0;
    background.mice = {1.3, 256.0, 4096.0};
    background.elephants = {1.3, 8e3, 32e3};
    background.mtu_bytes = 512;
    net::workload_config cfg;
    cfg.seed = seed_;
    cfg.tenants = {background};
    plane_ = std::make_unique<net::workload_plane>(fabric, cfg);
    for (std::size_t i = 0; i < flap::kBackgroundInjectors; ++i) {
      const auto a = static_cast<net::node_id>(r.below(n));
      const auto b = static_cast<net::node_id>((a + 1 + r.below(n - 1)) % n);
      plane_->add_injector(
          {a, fabric.topo().node_at(b).address, 0, udp_factory()});
    }
    plane_->start(horizon_s_);
  }

  model_bundle mb_;
  std::vector<task> tasks_;
  std::vector<std::uint8_t> ref_;
  std::vector<std::uint8_t> served_;
  std::vector<std::uint8_t> failed_;
};

// ---------------------------------------------------------------- output

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}");
}

void print_rep(int index, const rep_output& r) {
  std::printf("{\"rep\": %d, \"attempted\": %llu, \"failed\": %llu", index,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_map("sim", r.sim);
  print_map("obs", r.obs);
  print_map("host", r.host);
  std::printf(", \"violations\": [");
  const char* sep = "";
  for (const auto& v : r.violations) {
    std::printf("%s\"%s\"", sep, v.c_str());
    sep = ", ";
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

std::unique_ptr<scenario> make_scenario(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fig1_infer") return std::make_unique<fig1_infer>(seed);
  if (name == "ids_overload") return std::make_unique<ids_overload>(seed);
  if (name == "flap_recover") return std::make_unique<flap_recover>(seed);
  return nullptr;
}

/// One repetition: set-up, repeated until kSetupSampleS of it is timed
/// (each phase reported as its median), then one run of the last
/// instance.
rep_output repetition(const std::string& name, std::uint64_t seed) {
  const double probe_before = host_probe_s();
  std::vector<setup_times> samples;
  std::unique_ptr<scenario> s;
  double timed_s = 0.0;
  do {
    s.reset();  // tear the previous instance down outside the timing
    s = make_scenario(name, seed);
    if (obs::enabled()) obs::registry::global().reset_values();
    setup_times st;
    const auto t0 = clk::now();
    s->setup(st);
    st.total_s = seconds_since(t0);
    timed_s += st.total_s;
    samples.push_back(st);
  } while (timed_s < kSetupSampleS &&
           static_cast<int>(samples.size()) < kMaxSetupsPerRep);
  s->arm();
  rep_output out = s->run();
  s.reset();  // before the second probe, which must not share the heap
  const auto phase = [&samples](double setup_times::*field) {
    std::vector<double> v;
    for (const auto& st : samples) v.push_back(st.*field);
    return median(std::move(v));
  };
  out.host["setup_s"] = phase(&setup_times::total_s);
  out.host["setup.model_s"] = phase(&setup_times::model_s);
  out.host["setup.runtime_s"] = phase(&setup_times::runtime_s);
  out.host["setup.deploy_s"] = phase(&setup_times::deploy_s);
  out.host["setup.routes_s"] = phase(&setup_times::routes_s);
  out.host["setup.workload_s"] = phase(&setup_times::workload_s);
  out.host["setup.samples"] = static_cast<double>(samples.size());
  out.host["probe_s"] = 0.5 * (probe_before + host_probe_s());
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: onfiber_perfbench --workload "
               "fig1_infer|ids_overload|flap_recover --seed N --seconds S "
               "[--min-reps R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "onfiber_perfbench: refusing an unoptimised build\n");
  return 3;
#endif
  if (std::string(ONFIBER_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "onfiber_perfbench: build type '%s' is not Release\n",
                 ONFIBER_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int min_reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (flag == "--min-reps") {
      min_reps = std::atoi(argv[i + 1]);
    } else {
      return usage();
    }
  }
  if (!make_scenario(workload, seed)) return usage();

  const auto t0 = clk::now();
  int reps = 0;
  while (reps < min_reps || seconds_since(t0) < seconds) {
    print_rep(reps, repetition(workload, seed));
    ++reps;
  }
  std::printf(
      "{\"env\": {\"nproc\": %ld, \"cpu_affinity\": %zu, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"traced\": %s, \"workload\": \"%s\", "
      "\"seed\": %llu, \"reps\": %d, \"wall_s\": %.6f}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpu_affinity(), phot::simd::active().name,
      ONFIBER_PERFBENCH_BUILD_TYPE, obs::enabled() ? "true" : "false",
      workload.c_str(), static_cast<unsigned long long>(seed), reps,
      seconds_since(t0));
  return 0;
}
