#include "photonics/engine/vector_matrix_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "photonics/kernels.hpp"
#include "photonics/quantize_detail.hpp"

namespace onfiber::phot {

namespace {
// Lazily resolved: the engine is constructed long before tracing may be
// flipped on.
obs::histogram& gemm_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("kernel.gemm_wall_s");
  return h;
}

/// Lay out each `cols`-wide vector of `in` as one operand of the four
/// signed passes (`lay_out_rails`), back to back in `out`.
void lay_out_rail_rows(std::span<const double> in, std::size_t cols,
                       rail_operand side, std::span<double> out) {
  for (std::size_t r = 0; r * cols < in.size(); ++r) {
    lay_out_rails(in.subspan(r * cols, cols), side,
                  out.subspan(4 * cols * r, 4 * cols));
  }
}

/// Snap codes onto the grid `dac` quantizes to, once, so the DAC of a
/// pass only adds its noise and clips. quantize_to_grid's expression,
/// inlined so the loop vectorizes: gemm_signed(matrix) snaps the whole
/// matrix per call.
void snap_to_grid(std::span<double> codes, const converter_config& dac) {
  const double levels = static_cast<double>((1ULL << dac.bits) - 1);
  for (double& v : codes) v = detail::quantize_bf(v, dac.full_scale, levels);
}

bool same_grid(const converter_config& x, const converter_config& y) {
  return x.bits == y.bits && x.full_scale == y.full_scale;
}
}  // namespace

rail_weights::rail_weights(const matrix& w, const converter_config& dac)
    : rows(w.rows),
      cols(w.cols),
      dac(dac),
      a(4 * rows * cols),
      b(4 * rows * cols) {
  lay_out_rail_rows(w.data, cols, rail_operand::a, a);
  lay_out_rail_rows(w.data, cols, rail_operand::b, b);
  snap_to_grid(a, dac);
  snap_to_grid(b, dac);
}

vector_matrix_engine::vector_matrix_engine(dot_product_config config,
                                           std::uint64_t seed,
                                           energy_ledger* ledger,
                                           energy_costs costs)
    : models_(config, 0),
      ledger_(ledger),
      costs_(costs),
      row_seed_stream_(seed ^ 0x726f7773ULL /* "rows" */) {}

gemm_result vector_matrix_engine::gemm_signed(const matrix& w,
                                              std::span<const double> xs) {
  // Electrical weights ride only the a side: lay out and snap just those
  // rails, into reused storage.
  weight_rails_.resize(4 * w.data.size());
  lay_out_rail_rows(w.data, w.cols, rail_operand::a, weight_rails_);
  snap_to_grid(weight_rails_, models_.config().dac);
  return run_signed(weight_rails_, w.rows, w.cols, xs);
}

gemm_result vector_matrix_engine::gemm_signed(const rail_weights& w,
                                              std::span<const double> xs) {
  if (!same_grid(w.dac, models_.config().dac)) {
    throw std::invalid_argument(
        "vector_matrix_engine: weights snapped for another DAC");
  }
  return run_signed(w.a, w.rows, w.cols, xs);
}

gemm_result vector_matrix_engine::run_signed(
    std::span<const double> weight_rails, std::size_t rows, std::size_t cols,
    std::span<const double> xs) {
  if (rows == 0 || cols == 0 || xs.empty() || xs.size() % cols != 0) {
    throw std::invalid_argument("vector_matrix_engine: gemm shape mismatch");
  }
  // Lay every sample's rails out and snap them once (b side); rows share
  // them.
  sample_rails_.resize(4 * xs.size());
  lay_out_rail_rows(xs, cols, rail_operand::b, sample_rails_);
  snap_to_grid(sample_rails_, models_.config().dac);
  return run_passes(weight_rails, rows, cols, 4, sample_rails_,
                    models_.full_scale_power_mw(), false);
}

dot_result vector_matrix_engine::dot_unit_range(std::span<const double> a,
                                                std::span<const double> b,
                                                int repeats) {
  if (a.size() != b.size() || a.empty() || repeats < 1) {
    throw std::invalid_argument(
        "vector_matrix_engine: need equal, non-empty vectors and repeats "
        ">= 1");
  }
  // One unsigned row: a on the a side, snapped once; the batch is
  // `repeats` copies of b, snapped once.
  const std::size_t n = a.size();
  const converter_config& dac = models_.config().dac;
  weight_rails_.assign(a.begin(), a.end());
  snap_to_grid(weight_rails_, dac);
  sample_rails_.assign(b.begin(), b.end());
  snap_to_grid(sample_rails_, dac);
  sample_rails_.resize(static_cast<std::size_t>(repeats) * n);
  for (std::size_t k = n; k < sample_rails_.size(); k += n) {
    std::copy_n(sample_rails_.begin(), n, sample_rails_.begin() + k);
  }
  const gemm_result g = run_passes(weight_rails_, 1, n, 1, sample_rails_,
                                   models_.full_scale_power_mw(), false);
  dot_result out{0.0, g.latency_s, g.symbols};
  for (const double v : g.values) out.value += v;
  out.value /= static_cast<double>(repeats);
  return out;
}

gemm_result vector_matrix_engine::gemm_optical(
    const rail_weights& w, std::span<const double> received_mw,
    double reference_power_mw) {
  if (w.rows == 0 || w.cols == 0 || received_mw.empty() ||
      received_mw.size() % (4 * w.cols) != 0 || reference_power_mw <= 0.0 ||
      !same_grid(w.dac, models_.config().dac)) {
    throw std::invalid_argument("vector_matrix_engine: bad optical gemm");
  }
  // Full scale: the incoming reference power through the b modulator's
  // insertion loss.
  return run_passes(
      w.b, w.rows, w.cols, 4, received_mw,
      reference_power_mw * models_.modulator_transfer().loss, true);
}

gemm_result vector_matrix_engine::run_passes(std::span<const double> weights,
                                             std::size_t rows,
                                             std::size_t cols,
                                             std::size_t passes,
                                             std::span<const double> samples,
                                             double full_scale_mw,
                                             bool optical) {
  const obs::scoped_timer timer(gemm_wall_hist());
  const std::size_t width = passes * cols;
  const std::size_t batch = samples.size() / width;
  const std::size_t symbols = batch * width;     // per row
  const std::size_t readouts = passes * batch;   // per row
  // Fork every row's seed up front, in row order, and derive every row's
  // keys from them: the only RNG state the workers touch afterwards is
  // row-private, so scheduling cannot change any draw.
  seeds_.resize(rows);
  for (std::uint64_t& s : seeds_) s = row_seed_stream_();
  models_.row_keys_for(seeds_, !optical, keys_);

  // Invariants of the call.
  const mzm_transfer transfer = models_.modulator_transfer();
  const readout_plan plan = models_.plan_readout(cols, full_scale_mw);
  const double dac_sigma = models_.dac_noise_sigma();
  const double dac_full_scale = models_.config().dac.full_scale;
  const bool adc_noisy = models_.adc_noisy();

  dac_noise_.resize(rows * symbols);
  product_.resize(rows * symbols);
  detector_noise_.resize(rows * readouts);
  adc_noise_.resize(rows * readouts);
  readouts_.resize(rows * readouts);

  // Rows [first, last): one fill per stream kind for the whole range, row
  // r's draws at r * symbols (DAC, RIN) or r * readouts (detector, ADC) —
  // sample s takes DAC and RIN draws from s * width and readout draws
  // from s * passes, the indices a unit keyed from the row seed consumes
  // sample by sample. The laser phase walk is unobservable in an
  // intensity product and is not drawn.
  const auto range = [&](std::size_t first, std::size_t last) {
    const std::size_t n = last - first;
    const auto range_keys = [&](const std::vector<std::uint64_t>& k) {
      return std::span(k).subspan(first, n);
    };
    const auto range_rows = [&](std::vector<double>& v, std::size_t per_row) {
      return std::span(v).subspan(first * per_row, n * per_row);
    };
    const std::span<double> noise = range_rows(dac_noise_, symbols);
    const auto fill_dac_noise = [&](const std::vector<std::uint64_t>& k) {
      if (dac_sigma > 0.0) {
        fill_normal_rows(range_keys(k), 0, noise);
      } else {
        std::fill(noise.begin(), noise.end(), 0.0);
      }
    };
    // Each side's weight pass, row by row: the codes are on the DAC grid
    // already, so the DAC only adds its noise and clips, fused with the
    // modulator's transmission and the product with the power it
    // modulates.
    mzm_transfer side = transfer;
    if (!optical) {
      // a side: the carrier's powers through the weights, in place.
      models_.carrier().draw_powers(range_keys(keys_.rin), 0,
                                    range_rows(product_, symbols));
      fill_dac_noise(keys_.dac_a);
      for (std::size_t r = first; r < last; ++r) {
        side.bias_error_rad = keys_.bias_error_a_rad[r];
        for (std::size_t s = 0; s < batch; ++s) {
          double* p = product_.data() + r * symbols + s * width;
          side.weight_product(weights.data() + r * width,
                              dac_noise_.data() + r * symbols + s * width,
                              dac_sigma, dac_full_scale, p, p, width);
        }
      }
    }
    fill_dac_noise(keys_.dac_b);
    fill_normal_rows(range_keys(keys_.detector), 0,
                     range_rows(detector_noise_, readouts));
    if (adc_noisy) {
      fill_normal_rows(range_keys(keys_.adc), 0,
                       range_rows(adc_noise_, readouts));
    }
    // b side: the weights onto the received powers (optical), or the
    // samples through their DAC onto the a side's output (electrical).
    const std::size_t codes_step = optical ? 0 : width;
    for (std::size_t r = first; r < last; ++r) {
      const double* codes = optical ? weights.data() + r * width
                                    : samples.data();
      double* product = product_.data() + r * symbols;
      const double* powers = optical ? samples.data() : product;
      side.bias_error_rad = keys_.bias_error_b_rad[r];
      for (std::size_t s = 0; s < batch; ++s) {
        side.weight_product(codes + s * codes_step,
                            dac_noise_.data() + r * symbols + s * width,
                            dac_sigma, dac_full_scale, powers + s * width,
                            product + s * width, width);
      }
    }
    models_.read_out(plan, range_rows(product_, symbols),
                     range_rows(detector_noise_, readouts),
                     range_rows(adc_noise_, readouts),
                     range_rows(readouts_, readouts));
  };
  // One captured reference keeps the std::function allocation-free.
  parallel_rows(rows, symbols, kernel_thread_count(threads_override_),
                [&range](std::size_t first, std::size_t last) {
                  range(first, last);
                });

  gemm_result out;
  out.batch = batch;
  out.values.assign(batch * rows, 0.0);
  // Fold rows-outer / samples-inner — a fixed order, so aggregate float
  // sums are thread-invariant and a batch of one folds exactly like gemv.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < batch; ++s) {
      const dot_result d =
          plan.combine(readouts_.data() + (r * batch + s) * passes, passes);
      out.values[s * rows + r] = d.value;
      out.latency_s += d.latency_s;
      out.symbols += d.symbols;
    }
  }
  if (ledger_ != nullptr) {
    charge_row_cells(rows, batch, cols, passes, optical);
  }
  return out;
}

void vector_matrix_engine::charge_row_cells(std::size_t rows,
                                            std::size_t batch,
                                            std::size_t cols,
                                            std::size_t passes,
                                            bool optical) {
  // A row's unit took, per sample and device, one equal charge per pass
  // and category: the electrical pass drives the laser and both DACs and
  // modulators, the optical pass the b side alone. Rows merged in row
  // order.
  const std::uint64_t sides = optical ? 1 : 2;
  struct category {
    const char* name;
    double joules_per_op;
    std::uint64_t ops_per_pass;
    std::uint64_t devices;
  };
  const category categories[] = {
      {"dac", costs_.dac_conversion_j, cols, sides},
      {"laser", costs_.laser_j_per_symbol, cols, optical ? 0U : 1U},
      {"modulator", costs_.modulator_drive_j, cols, sides},
      {"photodetector", costs_.photodetector_readout_j, 1, 1},
      {"adc", costs_.adc_conversion_j, 1, 1},
      {"photonic_mac", costs_.photonic_mac_j, cols, 1},
  };
  for (const category& c : categories) {
    const std::uint64_t charges = passes * batch * c.devices;
    if (charges == 0) continue;
    const double per_pass =
        c.joules_per_op * static_cast<double>(c.ops_per_pass);
    double row_j = 0.0;
    for (std::uint64_t k = 0; k < charges; ++k) row_j += per_pass;
    ledger_->charge_repeated(c.name, row_j, charges * c.ops_per_pass, rows);
  }
}

gemv_result vector_matrix_engine::gemv_signed(const matrix& w,
                                              std::span<const double> x) {
  if (w.cols != x.size()) {
    throw std::invalid_argument("vector_matrix_engine: shape mismatch");
  }
  return gemm_signed(w, x);
}

std::vector<double> gemv_reference(const matrix& w,
                                   std::span<const double> x) {
  if (w.cols != x.size()) {
    throw std::invalid_argument("gemv_reference: shape mismatch");
  }
  std::vector<double> y(w.rows, 0.0);
  for (std::size_t r = 0; r < w.rows; ++r) {
    double acc = 0.0;
    const auto row = w.row(r);
    for (std::size_t c = 0; c < w.cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace onfiber::phot
