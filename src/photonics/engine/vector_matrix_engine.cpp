#include "photonics/engine/vector_matrix_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "photonics/kernels.hpp"
#include "photonics/quantize_detail.hpp"
#include "photonics/simd.hpp"

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

/// Snap codes onto the grid `dac` quantizes to, once, so each code is a
/// level whose drive moments are tabulated. quantize_to_grid's
/// expression, inlined so the loop vectorizes: gemm_signed(matrix) snaps
/// the whole matrix per call.
void snap_to_grid(std::span<double> codes, const converter_config& dac) {
  const double levels = static_cast<double>((1ULL << dac.bits) - 1);
  for (double& v : codes) v = detail::quantize_bf(v, dac.full_scale, levels);
}

/// Transmission moments of each code of `codes` from `drive` (a table or
/// a biased_drive) into `mean`, `var` and, when non-null, the second
/// moment `sq`.
template <class Drive>
void look_up(Drive& drive, std::span<const double> codes,
             std::vector<double>& mean, std::vector<double>& var,
             std::vector<double>* sq = nullptr) {
  mean.resize(codes.size());
  var.resize(codes.size());
  if (sq != nullptr) sq->resize(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const moments& m = drive.at(codes[i]);
    mean[i] = m.mean;
    var[i] = m.var;
    if (sq != nullptr) (*sq)[i] = m.var + m.mean * m.mean;
  }
}

/// Transmission moments of grid codes through one row's modulator with
/// a bias error, which the calibrated table cannot hold: a per-row table
/// filled on first use, one drive_moments evaluation per distinct level
/// a row drives.
class biased_drive {
 public:
  biased_drive(const drive_moment_table& table, double dac_sigma)
      : table_(table),
        dac_sigma_(dac_sigma),
        cache_(table.level.size()),
        stamp_(table.level.size(), 0) {}

  void start_row(double bias_error_rad) {
    transfer_ = table_.transfer;
    transfer_.bias_error_rad = bias_error_rad;
    ++row_;
  }

  const moments& at(double code) {
    const std::size_t j = table_.index_of(code);
    if (stamp_[j] != row_) {
      cache_[j] =
          transfer_.drive_moments(code, dac_sigma_, table_.dac.full_scale);
      stamp_[j] = row_;
    }
    return cache_[j];
  }

 private:
  const drive_moment_table& table_;
  double dac_sigma_;
  mzm_transfer transfer_;
  std::vector<moments> cache_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t row_ = 0;
};
}  // namespace

drive_moment_table::drive_moment_table(const dot_product_config& config)
    : dac(config.dac),
      transfer(mzm_transfer::calibrated(config.modulator)),
      level(std::size_t{1} << config.dac.bits) {
  const double sigma = enob_noise_sigma(dac);
  const double levels = static_cast<double>(level.size() - 1);
  for (std::size_t j = 0; j < level.size(); ++j) {
    // The code quantize_bf snaps to level j, in its expression.
    const double code = static_cast<double>(j) / levels * dac.full_scale;
    level[j] = transfer.drive_moments(code, sigma, dac.full_scale);
  }
}

std::size_t drive_moment_table::index_of(double code) const {
  const double levels = static_cast<double>(level.size() - 1);
  const double j = detail::round_half_away(code / dac.full_scale * levels);
  return std::min(static_cast<std::size_t>(j), level.size() - 1);
}

bool drive_moment_table::tabulates(const converter_config& d,
                                   const mzm_transfer& t) const {
  return d.bits == dac.bits && d.full_scale == dac.full_scale &&
         d.enob_penalty == dac.enob_penalty && t.floor_t == transfer.floor_t &&
         t.loss == transfer.loss;
}

rail_weights::rail_weights(const matrix& w, const dot_product_config& config)
    : rows(w.rows),
      cols(w.cols),
      dac(config.dac),
      transfer(mzm_transfer::calibrated(config.modulator)),
      a(4 * rows * cols),
      b(4 * rows * cols) {
  lay_out_rail_rows(w.data, cols, rail_operand::a, a);
  lay_out_rail_rows(w.data, cols, rail_operand::b, b);
  snap_to_grid(a, dac);
  snap_to_grid(b, dac);
  const drive_moment_table drive(config);
  look_up(drive, a, a_mean, a_var);
  look_up(drive, b, b_mean, b_var);
}

vector_matrix_engine::vector_matrix_engine(dot_product_config config,
                                           std::uint64_t seed,
                                           energy_ledger* ledger,
                                           energy_costs costs)
    : models_(config, 0),
      ledger_(ledger),
      costs_(costs),
      row_seed_stream_(seed ^ 0x726f7773ULL /* "rows" */) {}

const drive_moment_table& vector_matrix_engine::drive() {
  if (!drive_) drive_.emplace(models_.config());
  return *drive_;
}

vector_matrix_engine::row_operand vector_matrix_engine::weight_operand() {
  look_up(drive(), weight_rails_, weight_mean_, weight_var_);
  return {weight_rails_, weight_mean_, weight_var_};
}

gemm_result vector_matrix_engine::gemm_signed(const matrix& w,
                                              std::span<const double> xs) {
  // Electrical weights ride only the a side: lay out and snap just those
  // rails, into reused storage.
  weight_rails_.resize(4 * w.data.size());
  lay_out_rail_rows(w.data, w.cols, rail_operand::a, weight_rails_);
  snap_to_grid(weight_rails_, drive().dac);
  return run_signed(weight_operand(), w.rows, w.cols, xs);
}

gemm_result vector_matrix_engine::gemm_signed(const rail_weights& w,
                                              std::span<const double> xs) {
  if (!drive().tabulates(w.dac, w.transfer)) {
    throw std::invalid_argument(
        "vector_matrix_engine: weights built for another DAC or modulator");
  }
  return run_signed({w.a, w.a_mean, w.a_var}, w.rows, w.cols, xs);
}

gemm_result vector_matrix_engine::run_signed(const row_operand& w,
                                             std::size_t rows,
                                             std::size_t cols,
                                             std::span<const double> xs) {
  if (rows == 0 || cols == 0 || xs.empty() || xs.size() % cols != 0) {
    throw std::invalid_argument("vector_matrix_engine: gemm shape mismatch");
  }
  // Lay every sample's rails out and snap them once (b side); rows share
  // them.
  sample_rails_.resize(4 * xs.size());
  lay_out_rail_rows(xs, cols, rail_operand::b, sample_rails_);
  snap_to_grid(sample_rails_, drive().dac);
  return run_passes(w, rows, cols, 4, sample_rails_,
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
  weight_rails_.assign(a.begin(), a.end());
  snap_to_grid(weight_rails_, drive().dac);
  sample_rails_.assign(b.begin(), b.end());
  snap_to_grid(sample_rails_, drive().dac);
  sample_rails_.resize(static_cast<std::size_t>(repeats) * n);
  for (std::size_t k = n; k < sample_rails_.size(); k += n) {
    std::copy_n(sample_rails_.begin(), n, sample_rails_.begin() + k);
  }
  const gemm_result g = run_passes(weight_operand(), 1, n, 1, sample_rails_,
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
      !drive().tabulates(w.dac, w.transfer)) {
    throw std::invalid_argument("vector_matrix_engine: bad optical gemm");
  }
  // Full scale: the incoming reference power through the b modulator's
  // insertion loss.
  return run_passes({w.b, w.b_mean, w.b_var}, w.rows, w.cols, 4, received_mw,
                    reference_power_mw * drive().transfer.loss, true);
}

gemm_result vector_matrix_engine::run_passes(const row_operand& w,
                                             std::size_t rows,
                                             std::size_t cols,
                                             std::size_t passes,
                                             std::span<const double> samples,
                                             double full_scale_mw,
                                             bool optical) {
  const obs::scoped_timer timer(gemm_wall_hist());
  const drive_moment_table& drive = this->drive();
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
  const readout_plan plan = models_.plan_readout(cols, full_scale_mw);
  const double dac_sigma = models_.dac_noise_sigma();
  const bool adc_noisy = models_.adc_noisy();
  const bool biased = models_.config().modulator.bias_error_sigma_rad > 0.0;
  const moments power = models_.carrier().power_moments();
  const double power_sq = power.mean * power.mean;
  const bool sum_noisy = dac_sigma > 0.0 || (!optical && power.var > 0.0);

  // The samples' side of every readout's moments, shared by the rows: on
  // fiber the received powers and their squares, electrically the b-side
  // drive's moments of each sample code.
  if (optical) {
    sample_sq_.resize(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      sample_sq_[i] = samples[i] * samples[i];
    }
  } else {
    look_up(drive, samples, sample_mean_, sample_var_, &sample_sq_);
    row_m_.resize(rows * width);
    row_g_.resize(rows * width);
    row_h_.resize(rows * width);
  }
  sums_.resize(rows * readouts);
  sum_var_.resize(rows * readouts);
  readouts_.resize(rows * readouts);
  // The readout stream kinds the call draws: the sum's when any factor is
  // noisy, the detector's, and the ADC's when it is noisy.
  const std::vector<std::uint64_t>* kinds[3];
  std::size_t n_kinds = 0;
  if (sum_noisy) kinds[n_kinds++] = &keys_.dac_b;
  kinds[n_kinds++] = &keys_.detector;
  if (adc_noisy) kinds[n_kinds++] = &keys_.adc;
  fill_keys_.resize(n_kinds * rows);
  draws_.resize(n_kinds * rows * readouts);

  // Rows [first, last): one fill of every readout stream kind for the
  // whole range, kind-major, row r's draws of a kind at (r - first) *
  // readouts, readout (s, k) at s * passes + k. Each row's readout
  // moments, sample by sample, then each sum drawn from its moments and
  // one readout of the range.
  const auto range = [&](std::size_t first, std::size_t last) {
    const std::size_t n = last - first;
    const auto range_rows = [&](std::vector<double>& v) {
      return std::span(v).subspan(first * readouts, n * readouts);
    };
    const std::span<std::uint64_t> keys =
        std::span(fill_keys_).subspan(n_kinds * first, n_kinds * n);
    for (std::size_t c = 0; c < n_kinds; ++c) {
      std::copy_n(kinds[c]->begin() + static_cast<std::ptrdiff_t>(first), n,
                  keys.begin() + static_cast<std::ptrdiff_t>(c * n));
    }
    const std::span<double> draws = std::span(draws_).subspan(
        n_kinds * first * readouts, n_kinds * n * readouts);
    fill_normal_rows(keys, 0, draws);
    const auto kind_draws = [&](std::size_t c) {
      return draws.subspan(c * n * readouts, n * readouts);
    };
    const std::span<const double> detector_draws =
        kind_draws(sum_noisy ? 1 : 0);
    const std::span<const double> adc_draws =
        adc_noisy ? kind_draws(n_kinds - 1) : std::span<const double>();
    // A row whose modulator has a bias error takes its moments from a
    // per-row table, per side, in place of the calibrated ones.
    std::optional<biased_drive> biased_w, biased_x;
    std::vector<double> w_mean, w_var, x_mean, x_var, x_sq;
    if (biased) {
      biased_w.emplace(drive, dac_sigma);
      biased_x.emplace(drive, dac_sigma);
    }
    for (std::size_t r = first; r < last; ++r) {
      const double* wm = w.mean.data() + r * width;
      const double* wv = w.var.data() + r * width;
      const double w_bias = optical ? keys_.bias_error_b_rad[r]
                                    : keys_.bias_error_a_rad[r];
      if (w_bias != 0.0) {
        biased_w->start_row(w_bias);
        look_up(*biased_w, w.codes.subspan(r * width, width), w_mean, w_var);
        wm = w_mean.data();
        wv = w_var.data();
      }
      double* mean = sums_.data() + r * readouts;
      double* var = sum_var_.data() + r * readouts;
      if (optical) {
        for (std::size_t s = 0; s < batch; ++s) {
          simd::active().moment_sums(wm, samples.data() + s * width, wv,
                                     sample_sq_.data() + s * width, nullptr,
                                     nullptr, cols, passes, mean + s * passes,
                                     var + s * passes);
        }
        continue;
      }
      const double* xm = sample_mean_.data();
      const double* xv = sample_var_.data();
      const double* xsq = sample_sq_.data();
      if (keys_.bias_error_b_rad[r] != 0.0) {
        biased_x->start_row(keys_.bias_error_b_rad[r]);
        look_up(*biased_x, samples, x_mean, x_var, &x_sq);
        xm = x_mean.data();
        xv = x_var.data();
        xsq = x_sq.data();
      }
      // Symbol i carries P A B: carrier power, weight drive, sample drive,
      // independent. Its mean is m * M_B with m = E[P] M_A, its variance
      // g * E[B^2] + h * V_B with g = Var(P A) = Var(P) E[A^2] + E[P]^2
      // V_A and h = m^2: every term non-negative, so nothing cancels.
      double* m = row_m_.data() + r * width;
      double* g = row_g_.data() + r * width;
      double* h = row_h_.data() + r * width;
      for (std::size_t i = 0; i < width; ++i) {
        const double ma = wm[i];
        const double va = wv[i];
        m[i] = power.mean * ma;
        g[i] = power.var * (va + ma * ma) + power_sq * va;
        h[i] = m[i] * m[i];
      }
      for (std::size_t s = 0; s < batch; ++s) {
        const std::size_t at = s * width;
        simd::active().moment_sums(m, xm + at, g, xsq + at, h, xv + at, cols,
                                   passes, mean + s * passes,
                                   var + s * passes);
      }
    }
    // Each readout's sum: its mean plus its deviation times its draw.
    if (sum_noisy) {
      const std::span<double> sums = range_rows(sums_);
      const std::span<const double> var = range_rows(sum_var_);
      const std::span<const double> draw = kind_draws(0);
      for (std::size_t k = 0; k < sums.size(); ++k) {
        sums[k] += std::sqrt(var[k]) * draw[k];
      }
    }
    models_.read_out(plan, range_rows(sums_), detector_draws, adc_draws,
                     range_rows(readouts_));
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
