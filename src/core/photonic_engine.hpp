// photonic_engine.hpp — the receive-path compute engine of the photonic
// computing transponder (paper Fig. 4).
//
// "our design augments the receive path with a photonic engine ... The
//  photonic engine performs the appropriate computation tasks and inserts
//  the results into a predetermined field in the packet header or
//  payload."
//
// The engine hosts configured instances of the §2.1 primitives (P1 dot
// product / GEMV, P2 pattern matching, P3 nonlinear, and the fused
// P1+P3 DNN graph) and processes compute packets in place. It supports
// two execution modes, the axis of the E17 ablation:
//
//   * on_fiber     — the compute input is consumed in its optical form as
//                    it arrives (no input-side conversions at this node);
//   * oeo_per_hop  — Lightning-style [71]: the input is digitized by the
//                    receive ADC and re-encoded through a DAC before the
//                    photonic core runs (conversions charged per element).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "network/packet.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/nonlinear_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "protocol/compute_header.hpp"
#include "protocol/compute_routing.hpp"

namespace onfiber::core {

enum class compute_mode : std::uint8_t {
  on_fiber,     ///< the paper's proposal
  oeo_per_hop,  ///< conventional photonic-accelerator baseline
};

/// P1 task: y = W x (+ bias, optional rectification), x signed in [-1,1].
struct gemv_task {
  phot::matrix weights;
  std::vector<double> bias;  ///< may be empty (treated as zeros)
  bool relu_output = false;
};

/// P2 task: an ordered list of ternary patterns; the engine reports the
/// first match (priority matching, TCAM semantics).
struct match_task {
  std::vector<std::vector<phot::tbit>> patterns;
};
inline constexpr std::uint8_t match_no_hit = 0xff;

/// One layer of the fused P1+P3 DNN graph.
struct photonic_layer {
  phot::matrix weights;
  std::vector<double> bias;
  bool activation = true;  ///< apply the P3 electro-optic nonlinearity
  /// Pre-activation value that drives the P3 unit to full transmission.
  /// Must match the scale the model was trained with (photonic-aware
  /// training, see digital::activation_kind::photonic_sin2).
  double activation_scale = 2.0;
};

/// P1+P3 task: a whole feed-forward network executed inside the engine.
struct dnn_task {
  std::vector<photonic_layer> layers;
};

struct engine_config {
  phot::dot_product_config dot{};
  phot::pattern_match_config match{};
  phot::nonlinear_config nonlinear{};
  compute_mode mode = compute_mode::on_fiber;
};

/// What one packet's compute cost.
struct engine_report {
  bool computed = false;
  double compute_latency_s = 0.0;
  std::uint64_t input_conversions = 0;  ///< input-side DAC/ADC at this node
  std::uint64_t optical_symbols = 0;
};

/// Aggregate cost of one process_batch() call.
struct batch_report {
  std::size_t computed_packets = 0;
  double compute_latency_s = 0.0;       ///< total analog time, all packets
  std::uint64_t input_conversions = 0;
  std::uint64_t optical_symbols = 0;
  std::vector<bool> computed;           ///< per input packet, same order
};

class photonic_engine {
 public:
  photonic_engine(engine_config config, std::uint64_t seed,
                  phot::energy_ledger* ledger = nullptr,
                  phot::energy_costs costs = {});

  // ---------------------------------------------------- task configuration
  // (the "service providers will reconfigure each transponder according
  //  to the desired operation" of §3)
  void configure_gemv(gemv_task task);
  void configure_match(match_task task);
  void configure_dnn(dnn_task task);

  /// Override the GEMV worker count (0 = auto: ONFIBER_THREADS env var,
  /// else hardware concurrency). Results are bit-identical at any value —
  /// per-row noise streams are forked in row order before dispatch.
  void set_threads(std::size_t threads) { gemm_.set_threads(threads); }

  /// Can this engine serve packets asking for `p`?
  [[nodiscard]] bool supports(proto::primitive_id p) const;

  // ------------------------------------------------------------ data plane

  /// Process a compute packet in place: parse the header, run the matching
  /// configured task on the compute input, write the result into the
  /// result region, set flag_has_result and bump the hop count.
  /// Returns computed == false (and leaves the packet untouched) if the
  /// packet is not compute, already carries a result, asks for an
  /// unconfigured primitive, has the wrong input shape, or has malformed
  /// bounds; a refused packet draws from no noise stream. A batch of
  /// one: exactly process_batch() on a one-packet span.
  engine_report process(net::packet& pkt);

  /// Process many compute packets as one batch, the engine's only compute
  /// path. GEMV (P1) packets pool their samples into a single batched
  /// GEMM — the per-row weight rails are split once and every queued
  /// sample streams through them — and DNN packets run layer-major over
  /// the pooled sample set. P2 and P3 packets compute one by one, in
  /// packet order, before the pooled GEMMs. Each computed packet gets its
  /// result written in place, its hop count bumped, and flag_has_result
  /// set (or its chain advanced to the next stage).
  batch_report process_batch(std::span<net::packet* const> pkts);

  /// Optical preamble detection (§3): does this waveform begin with the
  /// compute preamble? `wave` must hold the pilot + 16 preamble symbols
  /// produced by `encode_preamble`.
  [[nodiscard]] bool detect_preamble(std::span<const phot::field> wave);

  /// Produce the optical preamble a source transponder prepends.
  [[nodiscard]] phot::waveform encode_preamble();

 private:
  /// A P1 or DNN packet queued for its pool's GEMM.
  struct pooled_pkt {
    std::size_t idx = 0;           ///< position in the batch
    proto::compute_header h{};
    std::size_t first_sample = 0;  ///< offset into the pooled sample set
    std::size_t samples = 0;
  };

  /// The packet's header if this engine can compute it: a compute header
  /// without a result, a configured primitive, the input shape its task
  /// expects and a result region that fits.
  [[nodiscard]] std::optional<proto::compute_header> admit(
      const net::packet& pkt) const;

  /// The work behind process() and process_batch(), untimed. Sums costs
  /// into `out`; sets out.computed[i] when the caller sized it.
  void compute(std::span<net::packet* const> pkts, batch_report& out);

  /// P2 / P3 compute of one admitted packet: writes the result, charges
  /// `report`, and returns the result length.
  std::size_t run_match(const proto::compute_header& h, net::packet& pkt,
                        engine_report& report);
  std::size_t run_nonlinear(const proto::compute_header& h, net::packet& pkt,
                            engine_report& report);

  /// Batched signed GEMM on the vector_matrix_engine kernel over weights
  /// split at configuration: `xs` carries xs.size() / w.cols input
  /// vectors back to back; `input_is_optical` selects the on-fiber input
  /// path. Returns sample-major values.
  [[nodiscard]] phot::gemm_result analog_gemm(const phot::rail_weights& w,
                                              std::span<const double> xs,
                                              bool input_is_optical,
                                              engine_report& report);

  /// The DNN's layers, layer-major over `acts` (input samples back to
  /// back), in place: `acts` ends as the output activations, sample-major.
  void run_dnn_layers(std::vector<double>& acts, bool optical,
                      engine_report& report);

  /// Shared post-compute packet rewrite: bump hops, record the result
  /// length, advance the chain stage or set flag_has_result.
  void apply_postlude(net::packet& pkt, proto::compute_header& h,
                      std::uint16_t result_bytes);

  engine_config config_;
  /// Ledger-free twin used to reconstruct the optical form of incoming
  /// data: the source transponder already paid those conversions, so the
  /// reconstruction must not charge this node.
  phot::dot_product_unit upstream_encoder_;
  phot::pattern_matcher matcher_;
  phot::pattern_matcher upstream_phase_encoder_;  // ledger-free, see above
  phot::nonlinear_unit nonlinear_;
  phot::vector_matrix_engine gemm_;  ///< the analog GEMM kernel
  phot::energy_ledger* ledger_ = nullptr;
  phot::energy_costs costs_{};
  std::vector<double> received_mw_;  ///< on-fiber sample powers, reused
  // Per-call pools of compute(), reused across calls.
  std::vector<pooled_pkt> p1_group_, dnn_group_;
  std::vector<double> p1_xs_, dnn_xs_;  ///< pooled decoded samples
  std::vector<std::uint8_t> match_bits_;  ///< P2 word bits, reused
  phot::waveform match_wave_;             ///< P2 on-fiber word, reused

  std::optional<gemv_task> gemv_;
  std::optional<phot::rail_weights> gemv_rails_;
  std::optional<match_task> match_;
  std::optional<dnn_task> dnn_;
  std::vector<phot::rail_weights> dnn_rails_;  ///< one per DNN layer
};

}  // namespace onfiber::core
