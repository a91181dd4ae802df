#include "core/photonic_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "protocol/codec.hpp"

namespace onfiber::core {

namespace {

// Lazily resolved wall-clock stage histograms (host-side telemetry;
// never feeds the simulation).
obs::histogram& process_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("engine.process_wall_s");
  return h;
}
obs::histogram& batch_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("engine.batch_wall_s");
  return h;
}

/// Writable view of `out_len` result bytes at the header's result offset.
/// Engines size their own results (the client cannot always know the
/// output length of every chain stage); empty if it does not fit.
[[nodiscard]] std::span<std::uint8_t> result_span(
    net::packet& pkt, const proto::compute_header& h, std::size_t out_len) {
  const std::size_t begin = proto::compute_header_bytes + h.result_offset;
  if (out_len == 0 || begin + out_len > pkt.payload.size()) return {};
  return std::span<std::uint8_t>(pkt.payload).subspan(begin, out_len);
}

/// Decode `samples` input vectors of `cols` bytes onto the end of `xs`.
/// First-stage P1 inputs use the signed encoding the client chose;
/// chained intermediate values and every DNN input travel in the unit
/// [0,1] encoding.
void append_samples(std::vector<double>& xs,
                    std::span<const std::uint8_t> input, std::size_t cols,
                    std::size_t samples, bool signed_encoding) {
  for (std::size_t b = 0; b < samples; ++b) {
    const auto sample = input.subspan(b * cols, cols);
    const std::vector<double> x = signed_encoding
                                      ? proto::decode_signed_vector(sample)
                                      : proto::decode_unit_vector(sample);
    xs.insert(xs.end(), x.begin(), x.end());
  }
}

/// P1 writeback of `samples` results of `y` from sample `first` on:
/// bias, optional ReLU, and the chain codec.
void write_gemv_results(const gemv_task& task, std::span<std::uint8_t> region,
                        const proto::compute_header& h,
                        const phot::gemm_result& y, std::size_t first,
                        std::size_t samples) {
  // Chain codec convention: intermediate stage values travel in the unit
  // [0,1] encoding; only final results use the signed encoding.
  const bool chained_output = h.has_more_stages();
  const std::size_t rows = task.weights.rows;
  const double scale =
      std::max<double>(1.0, static_cast<double>(task.weights.cols));
  for (std::size_t b = 0; b < samples; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      double v = y.values[(first + b) * rows + r];
      if (!task.bias.empty()) v += task.bias[r];
      if (task.relu_output && v < 0.0) v = 0.0;
      region[b * rows + r] = chained_output
                                 ? proto::encode_unit_u8(v / scale)
                                 : proto::encode_signed_u8(v / scale);
    }
  }
}

/// Per-sample DNN result: argmax class byte + logits normalized by
/// max |logit|.
void write_dnn_result(std::span<std::uint8_t> out,
                      std::span<const double> act) {
  double amax = 1e-9;
  for (double v : act) amax = std::max(amax, std::abs(v));
  std::size_t best = 0;
  for (std::size_t i = 1; i < act.size(); ++i) {
    if (act[i] > act[best]) best = i;
  }
  out[0] = static_cast<std::uint8_t>(best);
  for (std::size_t i = 0; i < act.size(); ++i) {
    out[1 + i] = proto::encode_signed_u8(act[i] / amax);
  }
}

}  // namespace

photonic_engine::photonic_engine(engine_config config, std::uint64_t seed,
                                 phot::energy_ledger* ledger,
                                 phot::energy_costs costs)
    : config_(config),
      upstream_encoder_(config.dot, seed ^ 0xf00d, nullptr, costs),
      matcher_(config.match, seed ^ 0xbeef, ledger, costs),
      upstream_phase_encoder_(config.match, seed ^ 0xcafe, nullptr, costs),
      nonlinear_(config.nonlinear, seed ^ 0xd00d, ledger, costs),
      gemm_(config.dot, seed, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

void photonic_engine::configure_gemv(gemv_task task) {
  if (task.weights.rows == 0 || task.weights.cols == 0) {
    throw std::invalid_argument("photonic_engine: empty GEMV task");
  }
  if (!task.bias.empty() && task.bias.size() != task.weights.rows) {
    throw std::invalid_argument("photonic_engine: bias/rows mismatch");
  }
  gemv_rails_.emplace(task.weights);
  gemv_ = std::move(task);
}

void photonic_engine::configure_match(match_task task) {
  if (task.patterns.empty()) {
    throw std::invalid_argument("photonic_engine: no patterns");
  }
  for (const auto& p : task.patterns) {
    if (p.empty()) {
      throw std::invalid_argument("photonic_engine: empty pattern");
    }
  }
  if (task.patterns.size() >= match_no_hit) {
    throw std::invalid_argument("photonic_engine: too many patterns");
  }
  match_ = std::move(task);
}

void photonic_engine::configure_dnn(dnn_task task) {
  if (task.layers.empty()) {
    throw std::invalid_argument("photonic_engine: empty DNN task");
  }
  for (std::size_t l = 1; l < task.layers.size(); ++l) {
    if (task.layers[l].weights.cols != task.layers[l - 1].weights.rows) {
      throw std::invalid_argument("photonic_engine: DNN layer shape chain");
    }
  }
  dnn_rails_.clear();
  for (const photonic_layer& layer : task.layers) {
    dnn_rails_.emplace_back(layer.weights);
  }
  dnn_ = std::move(task);
}

void photonic_engine::clear_tasks() {
  gemv_.reset();
  gemv_rails_.reset();
  match_.reset();
  dnn_.reset();
  dnn_rails_.clear();
}

bool photonic_engine::supports(proto::primitive_id p) const {
  switch (p) {
    case proto::primitive_id::p1_dot_product:
      return gemv_.has_value();
    case proto::primitive_id::p2_pattern_match:
      return match_.has_value();
    case proto::primitive_id::p3_nonlinear:
      return true;  // the nonlinear unit is always present
    case proto::primitive_id::p1_p3_dnn:
      return dnn_.has_value();
    case proto::primitive_id::none:
      return false;
  }
  return false;
}

std::vector<proto::primitive_id> photonic_engine::configured() const {
  std::vector<proto::primitive_id> out;
  if (gemv_) out.push_back(proto::primitive_id::p1_dot_product);
  if (match_) out.push_back(proto::primitive_id::p2_pattern_match);
  out.push_back(proto::primitive_id::p3_nonlinear);
  if (dnn_) out.push_back(proto::primitive_id::p1_p3_dnn);
  return out;
}

phot::gemm_result photonic_engine::analog_gemm(const phot::rail_weights& w,
                                               std::span<const double> xs,
                                               bool input_is_optical,
                                               engine_report& report) {
  const std::size_t cols = w.cols;
  const std::size_t batch = xs.size() / cols;  // callers validate the shape
  phot::gemm_result out;
  if (input_is_optical) {
    // On-fiber path: each sample's rails exist as optical waveforms
    // (encoded upstream; reconstruction here is ledger-free), produced in
    // sample order on the continuing upstream-encoder streams. Every row
    // reads the same received powers — wavelength/splitter fan-out in
    // hardware.
    received_mw_.resize(4 * xs.size());
    for (std::size_t s = 0; s < batch; ++s) {
      upstream_encoder_.encode_rails_received(
          xs.subspan(s * cols, cols),
          std::span<double>(received_mw_).subspan(4 * cols * s, 4 * cols));
    }
    const double ref_mw =
        config_.dot.laser.power_mw *
        phot::db_to_ratio(-config_.dot.modulator.insertion_loss_db);
    out = gemm_.gemm_optical(w, received_mw_, ref_mw, batch);
  } else {
    // OEO path: every sample was digitized by the receive ADC (cols
    // conversions each) and is re-encoded through the a-side DAC inside
    // every pass.
    report.input_conversions += xs.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(xs.size()),
                      xs.size());
    }
    out = gemm_.gemm_signed(w, xs, batch);
    // DACs inside the rail passes: four per row per sample.
    report.input_conversions += 4 * xs.size() * w.rows;
  }
  report.optical_symbols += out.symbols;
  report.compute_latency_s += out.latency_s;
  return out;
}

std::size_t photonic_engine::run_match(const proto::compute_header& h,
                                       net::packet& pkt,
                                       engine_report& report) {
  const auto input = proto::compute_input(pkt, h);
  const std::vector<std::uint8_t> bits = phot::bytes_to_bits(input);
  const bool optical = config_.mode == compute_mode::on_fiber;

  // On-fiber: the word exists optically once (pilot-first BPSK).
  phot::waveform wave;
  if (optical) {
    wave = upstream_phase_encoder_.encode_bits_to_optical(bits);
  } else {
    // Receive ADC digitized the word before matching.
    report.input_conversions += bits.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(bits.size()),
                      bits.size());
    }
  }

  std::uint8_t hit = match_no_hit;
  for (std::size_t pi = 0; pi < match_->patterns.size(); ++pi) {
    const auto& pattern = match_->patterns[pi];
    if (pattern.size() != bits.size()) continue;
    phot::match_result m;
    if (optical) {
      m = matcher_.match_optical(wave, pattern);
    } else {
      // OEO: each trial re-drives the data phase modulator from digital.
      report.input_conversions += bits.size();
      if (ledger_ != nullptr) {
        ledger_->charge("dac", costs_.dac_conversion_j *
                                   static_cast<double>(bits.size()),
                        bits.size());
      }
      m = matcher_.match_ternary(bits, pattern);
    }
    report.compute_latency_s += m.latency_s;
    report.optical_symbols += m.symbols;
    if (m.matched) {
      hit = static_cast<std::uint8_t>(pi);
      break;
    }
  }
  result_span(pkt, h, 1)[0] = hit;
  return 1;
}

std::size_t photonic_engine::run_nonlinear(const proto::compute_header& h,
                                           net::packet& pkt,
                                           engine_report& report) {
  const auto input = proto::compute_input(pkt, h);
  const auto result_region = result_span(pkt, h, input.size());

  const std::vector<double> x = proto::decode_unit_vector(input);
  const double full_scale_mw = config_.dot.laser.power_mw;
  const bool optical = config_.mode == compute_mode::on_fiber;

  if (!optical) {
    // ADC-in + DAC re-encode per element.
    report.input_conversions += 2 * x.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(x.size()),
                      x.size());
      ledger_->charge("dac", costs_.dac_conversion_j *
                                 static_cast<double>(x.size()),
                      x.size());
    }
  }
  // Result readout digitizes each activated sample in both modes.
  report.input_conversions += x.size();
  if (ledger_ != nullptr) {
    ledger_->charge("adc", costs_.adc_conversion_j *
                               static_cast<double>(x.size()),
                    x.size());
  }

  for (std::size_t i = 0; i < x.size(); ++i) {
    const double y = nonlinear_.activate(x[i], full_scale_mw);
    result_region[i] = proto::encode_unit_u8(y);
  }
  report.optical_symbols += x.size();
  report.compute_latency_s +=
      static_cast<double>(x.size()) / config_.nonlinear.symbol_rate_hz +
      config_.dot.fixed_latency_s;
  return x.size();
}

void photonic_engine::run_dnn_layers(std::vector<double>& acts, bool optical,
                                     engine_report& report) {
  const double full_scale_mw = config_.dot.laser.power_mw;
  const std::size_t total = acts.size() / dnn_->layers.front().weights.cols;
  for (std::size_t li = 0; li < dnn_->layers.size(); ++li) {
    const photonic_layer& layer = dnn_->layers[li];
    // Inside the engine the analog signal never leaves the chip in
    // on-fiber mode (single-chip photonic DNN [9]); in OEO mode every
    // layer pays the conversion boundary.
    const phot::gemm_result z =
        analog_gemm(dnn_rails_[li], acts, optical, report);
    const std::size_t dim = layer.weights.rows;
    acts.assign(total * dim, 0.0);
    for (std::size_t s = 0; s < total; ++s) {
      for (std::size_t i = 0; i < dim; ++i) {
        double v = z.values[s * dim + i];
        if (!layer.bias.empty()) v += layer.bias[i];
        if (layer.activation) {
          // Map pre-activations onto the P3 unit's optical dynamic range
          // with the layer's fixed calibration scale (the one the model
          // trained with), then run each through the electro-optic
          // nonlinearity. Negative pre-activations carry no optical
          // power.
          const double u = std::clamp(v / layer.activation_scale, 0.0, 1.0);
          acts[s * dim + i] = nonlinear_.activate(u, full_scale_mw);
        } else {
          acts[s * dim + i] = v;
        }
      }
      if (layer.activation) {
        report.compute_latency_s +=
            static_cast<double>(dim) / config_.nonlinear.symbol_rate_hz;
        report.optical_symbols += dim;
      }
    }
  }
}

engine_report photonic_engine::process(net::packet& pkt) {
  const obs::scoped_timer timer(process_wall_hist());
  net::packet* const one[] = {&pkt};
  batch_report r;  // no per-packet flags: computed_packets says it
  compute(one, r);
  return {r.computed_packets == 1, r.compute_latency_s, r.input_conversions,
          r.optical_symbols};
}

batch_report photonic_engine::process_batch(
    std::span<net::packet* const> pkts) {
  const obs::scoped_timer timer(batch_wall_hist());
  batch_report out;
  out.computed.assign(pkts.size(), false);
  compute(pkts, out);
  return out;
}

void photonic_engine::apply_postlude(net::packet& pkt,
                                     proto::compute_header& h,
                                     std::uint16_t result_bytes) {
  h.hops = static_cast<std::uint8_t>(h.hops + 1);
  h.result_length = result_bytes;
  if (h.has_more_stages()) {
    // Distributed chain (§5): hand off to the next stage — the result
    // becomes its input and the packet keeps routing by the new
    // primitive until a capable transponder is crossed.
    h.advance_stage(result_bytes);
  } else {
    h.flags |= proto::flag_has_result;
  }
  rewrite_compute_header(pkt, h);
}

std::optional<proto::compute_header> photonic_engine::admit(
    const net::packet& pkt) const {
  const auto h = proto::peek_compute_header(pkt);
  if (!h || h->has_result() || !supports(h->primitive)) return std::nullopt;
  const std::size_t input = proto::compute_input(pkt, *h).size();
  const std::size_t batch = h->batch;

  // Does the input have the task's shape, and how long is the result?
  bool shape_ok = input > 0;
  std::size_t result_len = 0;
  switch (h->primitive) {
    case proto::primitive_id::p1_dot_product:
      shape_ok = batch > 0 && input == gemv_->weights.cols * batch;
      result_len = gemv_->weights.rows * batch;
      break;
    case proto::primitive_id::p2_pattern_match:
      result_len = 1;
      break;
    case proto::primitive_id::p3_nonlinear:
      result_len = input;
      break;
    case proto::primitive_id::p1_p3_dnn:
      shape_ok = batch > 0 &&
                 input == dnn_->layers.front().weights.cols * batch;
      result_len = (1 + dnn_->layers.back().weights.rows) * batch;
      break;
    case proto::primitive_id::none:
      return std::nullopt;
  }
  if (!shape_ok) return std::nullopt;
  const std::size_t begin = proto::compute_header_bytes + h->result_offset;
  if (result_len == 0 || begin + result_len > pkt.payload.size()) {
    return std::nullopt;
  }
  return h;
}

void photonic_engine::compute(std::span<net::packet* const> pkts,
                              batch_report& out) {
  const auto absorb = [&out](const engine_report& r) {
    out.compute_latency_s += r.compute_latency_s;
    out.input_conversions += r.input_conversions;
    out.optical_symbols += r.optical_symbols;
  };
  const auto finish = [&](std::size_t idx, proto::compute_header& h,
                          std::size_t bytes) {
    apply_postlude(*pkts[idx], h, static_cast<std::uint16_t>(bytes));
    if (!out.computed.empty()) out.computed[idx] = true;
    ++out.computed_packets;
  };

  // Admission: P2 and P3 packets compute here, in packet order; P1 and
  // DNN packets pool their decoded samples. Rejected packets stay as
  // they are.
  p1_group_.clear();
  dnn_group_.clear();
  p1_xs_.clear();
  dnn_xs_.clear();
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    net::packet& pkt = *pkts[i];
    auto h = admit(pkt);
    if (!h) continue;
    const bool p1 = h->primitive == proto::primitive_id::p1_dot_product;
    if (!p1 && h->primitive != proto::primitive_id::p1_p3_dnn) {
      engine_report r;
      const std::size_t bytes =
          h->primitive == proto::primitive_id::p2_pattern_match
              ? run_match(*h, pkt, r)
              : run_nonlinear(*h, pkt, r);
      absorb(r);
      finish(i, *h, bytes);
      continue;
    }

    const std::size_t cols = p1 ? gemv_->weights.cols
                                : dnn_->layers.front().weights.cols;
    auto& xs = p1 ? p1_xs_ : dnn_xs_;
    const pooled_pkt entry{i, *h, xs.size() / cols,
                           static_cast<std::size_t>(h->batch)};
    append_samples(xs, proto::compute_input(pkt, *h), cols, entry.samples,
                   p1 && h->hops == 0);
    (p1 ? p1_group_ : dnn_group_).push_back(entry);
  }

  const bool optical = config_.mode == compute_mode::on_fiber;

  // ---- pooled P1: one batched GEMM over every queued sample ----------
  if (!p1_group_.empty()) {
    engine_report agg;
    const phot::gemm_result y =
        analog_gemm(*gemv_rails_, p1_xs_, optical, agg);
    absorb(agg);
    const std::size_t rows = gemv_->weights.rows;
    for (pooled_pkt& e : p1_group_) {
      write_gemv_results(*gemv_,
                         result_span(*pkts[e.idx], e.h, rows * e.samples),
                         e.h, y, e.first_sample, e.samples);
      finish(e.idx, e.h, rows * e.samples);
    }
  }

  // ---- pooled DNN: layer-major GEMM over every queued sample ---------
  if (!dnn_group_.empty()) {
    engine_report agg;
    run_dnn_layers(dnn_xs_, optical, agg);
    absorb(agg);
    const std::size_t out_dim = dnn_->layers.back().weights.rows;
    for (pooled_pkt& e : dnn_group_) {
      auto result_region =
          result_span(*pkts[e.idx], e.h, (1 + out_dim) * e.samples);
      for (std::size_t b = 0; b < e.samples; ++b) {
        write_dnn_result(
            result_region.subspan(b * (1 + out_dim), 1 + out_dim),
            std::span(dnn_xs_).subspan((e.first_sample + b) * out_dim,
                                       out_dim));
      }
      finish(e.idx, e.h, (1 + out_dim) * e.samples);
    }
  }
}

bool photonic_engine::detect_preamble(std::span<const phot::field> wave) {
  if (wave.size() != proto::optical_preamble_bits.size() + 1) return false;
  std::vector<phot::tbit> pattern;
  pattern.reserve(proto::optical_preamble_bits.size());
  for (std::uint8_t b : proto::optical_preamble_bits) {
    pattern.push_back(b ? phot::tbit::one : phot::tbit::zero);
  }
  return matcher_.match_optical(wave, pattern).matched;
}

phot::waveform photonic_engine::encode_preamble() {
  const std::vector<std::uint8_t> bits(proto::optical_preamble_bits.begin(),
                                       proto::optical_preamble_bits.end());
  return matcher_.encode_bits_to_optical(bits);
}

}  // namespace onfiber::core
