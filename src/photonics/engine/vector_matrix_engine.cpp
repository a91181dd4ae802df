#include "photonics/engine/vector_matrix_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "photonics/kernels.hpp"

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
}  // namespace

rail_weights::rail_weights(const matrix& w, const converter_config& dac)
    : rows(w.rows),
      cols(w.cols),
      dac(dac),
      a(4 * rows * cols),
      b(4 * rows * cols) {
  lay_out_rail_rows(w.data, cols, rail_operand::a, a);
  lay_out_rail_rows(w.data, cols, rail_operand::b, b);
  for (double& v : b) v = quantize_to_grid(v, dac.full_scale, dac.bits);
}

vector_matrix_engine::vector_matrix_engine(dot_product_config config,
                                           std::uint64_t seed,
                                           energy_ledger* ledger,
                                           energy_costs costs)
    : models_(config, 0),
      ledger_(ledger),
      costs_(costs),
      row_seed_stream_(seed ^ 0x726f7773ULL /* "rows" */) {}

void vector_matrix_engine::fork_row_seeds(std::size_t rows) {
  // Fork every row's seed up front, in row order: the only RNG state the
  // workers touch afterwards is row-private, so scheduling cannot change
  // any draw.
  seeds_.resize(rows);
  for (std::uint64_t& s : seeds_) s = row_seed_stream_();
}

gemm_result vector_matrix_engine::run(const operands& op,
                                      std::size_t samples_per_cell) {
  const obs::scoped_timer timer(gemm_wall_hist());
  const std::size_t rows = op.rows;
  const std::size_t width = kSignedPasses * op.cols;
  const std::size_t batch = op.samples.size() / width;
  fork_row_seeds(rows);

  const std::size_t chunks =
      batch / samples_per_cell + (batch % samples_per_cell != 0 ? 1 : 0);
  const std::size_t n_cells = rows * chunks;
  while (slots_.size() < n_cells) {
    slots_.push_back(std::make_unique<row_slot>(
        models_.config(), ledger_ != nullptr, costs_));
  }
  cells_.resize(rows * batch);

  parallel_rows(
      n_cells, kernel_thread_count(threads_override_), [&](std::size_t cell) {
        const std::size_t r = cell / chunks;
        const std::size_t s_begin = (cell % chunks) * samples_per_cell;
        const std::size_t s_end = std::min(batch, s_begin + samples_per_cell);
        row_slot& slot = *slots_[cell];
        slot.ledger.reset();
        slot.unit.rekey(seeds_[r]);
        slot.unit.skip_passes(s_begin * kSignedPasses, op.cols);
        const auto w_row = op.weights.subspan(r * width, width);
        for (std::size_t s = s_begin; s < s_end; ++s) {
          cells_[r * batch + s] = slot.unit.dot_passes(
              w_row, op.samples.subspan(s * width, width), kSignedPasses);
        }
      });

  gemm_result out;
  out.batch = batch;
  out.values.assign(batch * rows, 0.0);
  // Fold rows-outer / samples-inner — a fixed order, so aggregate float
  // sums are thread-invariant and a batch of one folds exactly like gemv.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < batch; ++s) {
      const dot_result& d = cells_[r * batch + s];
      out.values[s * rows + r] = d.value;
      out.latency_s += d.latency_s;
      out.symbols += d.symbols;
    }
  }
  if (ledger_ != nullptr) {
    for (std::size_t c = 0; c < n_cells; ++c) ledger_->merge(slots_[c]->ledger);
  }
  return out;
}

gemm_result vector_matrix_engine::run_signed(
    std::span<const double> weight_rails, std::size_t rows, std::size_t cols,
    std::span<const double> xs, std::size_t samples_per_cell) {
  if (rows == 0 || cols == 0 || xs.empty() || xs.size() % cols != 0 ||
      samples_per_cell == 0) {
    throw std::invalid_argument("vector_matrix_engine: gemm shape mismatch");
  }
  // Lay every sample's rails out once (b side); rows share them.
  sample_rails_.resize(4 * xs.size());
  lay_out_rail_rows(xs, cols, rail_operand::b, sample_rails_);
  return run({weight_rails, sample_rails_, rows, cols}, samples_per_cell);
}

gemm_result vector_matrix_engine::gemm_signed(const rail_weights& w,
                                              std::span<const double> xs,
                                              std::size_t samples_per_cell) {
  return run_signed(w.a, w.rows, w.cols, xs, samples_per_cell);
}

gemm_result vector_matrix_engine::gemm_optical(
    const rail_weights& w, std::span<const double> received_mw,
    double reference_power_mw, std::size_t samples_per_cell) {
  const dot_product_config& cfg = models_.config();
  if (w.rows == 0 || w.cols == 0 || received_mw.empty() ||
      received_mw.size() % (4 * w.cols) != 0 || reference_power_mw <= 0.0 ||
      samples_per_cell == 0 || w.dac.bits != cfg.dac.bits ||
      w.dac.full_scale != cfg.dac.full_scale) {
    throw std::invalid_argument("vector_matrix_engine: bad optical gemm");
  }
  const obs::scoped_timer timer(gemm_wall_hist());
  const std::size_t rows = w.rows;
  const std::size_t cols = w.cols;
  const std::size_t width = 4 * cols;
  const std::size_t batch = received_mw.size() / width;
  const std::size_t readouts = 4 * batch;  // per row
  fork_row_seeds(rows);

  // Invariants of the call. Full scale: the incoming reference power
  // through the b modulator's insertion loss.
  const mzm_transfer transfer = models_.weight_transfer();
  const readout_plan plan =
      models_.plan_readout(cols, reference_power_mw * transfer.loss);
  const double dac_sigma = models_.dac_noise_sigma();
  const double dac_full_scale = cfg.dac.full_scale;
  const bool adc_noisy = models_.adc_noisy();

  dac_noise_.resize(rows * batch * width);
  product_.resize(rows * batch * width);
  detector_noise_.resize(rows * readouts);
  adc_noise_.resize(rows * readouts);
  readouts_.resize(rows * readouts);

  const auto row = [&](std::size_t r) {
    // One fill per stream the row draws from: sample s takes DAC draws
    // from s * width and readout draws from s * 4, the indices a unit
    // re-keyed from the row seed consumes sample by sample.
    const on_fiber_streams keys = models_.on_fiber_streams_for(seeds_[r]);
    const std::span<double> dac_noise(dac_noise_.data() + r * batch * width,
                                      batch * width);
    if (dac_sigma > 0.0) {
      counter_stream(keys.dac_b).fill_normal(dac_noise);
    } else {
      std::fill(dac_noise.begin(), dac_noise.end(), 0.0);
    }
    counter_stream(keys.detector)
        .fill_normal(std::span(detector_noise_).subspan(r * readouts,
                                                        readouts));
    if (adc_noisy) {
      counter_stream(keys.adc).fill_normal(
          std::span(adc_noise_).subspan(r * readouts, readouts));
    }
    // Weight pass per sample: b is on the DAC grid already, so the DAC
    // only adds its noise and clips, fused with the b modulator's
    // transmission and the product with the received power.
    mzm_transfer row_transfer = transfer;
    row_transfer.bias_error_rad = keys.bias_error_b_rad;
    const double* codes = w.b.data() + r * width;
    for (std::size_t s = 0; s < batch; ++s) {
      row_transfer.weight_product(
          codes, dac_noise.data() + s * width, dac_sigma, dac_full_scale,
          received_mw.data() + s * width,
          product_.data() + (r * batch + s) * width, width);
    }
  };
  // One captured reference keeps the std::function allocation-free.
  parallel_rows(rows, kernel_thread_count(threads_override_),
                [&row](std::size_t r) { row(r); });
  models_.read_out(plan, product_, detector_noise_, adc_noise_, readouts_);

  gemm_result out;
  out.batch = batch;
  out.values.assign(batch * rows, 0.0);
  // Fold rows-outer / samples-inner, as the electrical GEMM does.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < batch; ++s) {
      const dot_result d =
          plan.combine(readouts_.data() + (r * batch + s) * 4, 4);
      out.values[s * rows + r] = d.value;
      out.latency_s += d.latency_s;
      out.symbols += d.symbols;
    }
  }
  if (ledger_ != nullptr) {
    charge_on_fiber_cells(rows, batch, cols, samples_per_cell);
  }
  return out;
}

void vector_matrix_engine::charge_on_fiber_cells(std::size_t rows,
                                                 std::size_t batch,
                                                 std::size_t cols,
                                                 std::size_t samples_per_cell) {
  // A cell's ledger took, per sample, four equal charges per category;
  // the cells merged in (row, cell) order. Every row has chunks - 1 cells
  // of samples_per_cell samples and a last one of `tail`.
  const std::size_t chunks =
      batch / samples_per_cell + (batch % samples_per_cell != 0 ? 1 : 0);
  const std::size_t tail = batch - (chunks - 1) * samples_per_cell;
  const bool uniform = chunks == 1 || tail == samples_per_cell;
  struct category {
    const char* name;
    double joules_per_op;
    std::uint64_t ops_per_pass;
  };
  const category categories[] = {
      {"dac", costs_.dac_conversion_j, cols},
      {"modulator", costs_.modulator_drive_j, cols},
      {"photodetector", costs_.photodetector_readout_j, 1},
      {"adc", costs_.adc_conversion_j, 1},
      {"photonic_mac", costs_.photonic_mac_j, cols},
  };
  for (const category& c : categories) {
    const double per_pass =
        c.joules_per_op * static_cast<double>(c.ops_per_pass);
    const auto cell_joules = [&](std::size_t samples) {
      double j = 0.0;
      for (std::size_t k = 0; k < 4 * samples; ++k) j += per_pass;
      return j;
    };
    const double tail_j = cell_joules(tail);
    const std::uint64_t tail_ops = 4 * tail * c.ops_per_pass;
    if (uniform) {
      ledger_->charge_repeated(c.name, tail_j, tail_ops, rows * chunks);
      continue;
    }
    const double full_j = cell_joules(samples_per_cell);
    const std::uint64_t full_ops = 4 * samples_per_cell * c.ops_per_pass;
    for (std::size_t r = 0; r < rows; ++r) {
      ledger_->charge_repeated(c.name, full_j, full_ops, chunks - 1);
      ledger_->charge(c.name, tail_j, tail_ops);
    }
  }
}

gemm_result vector_matrix_engine::gemm_signed(const matrix& w,
                                              std::span<const double> xs) {
  // Electrical weights ride only the a side: lay out just those rails,
  // into reused storage, and skip the b side's grid snap.
  weight_rails_.resize(4 * w.data.size());
  lay_out_rail_rows(w.data, w.cols, rail_operand::a, weight_rails_);
  return run_signed(weight_rails_, w.rows, w.cols, xs, kSamplesPerCell);
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
