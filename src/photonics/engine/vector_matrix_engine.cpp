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
}  // namespace

rail_weights::rail_weights(const matrix& w)
    : rows(w.rows), cols(w.cols), a(4 * rows * cols), b(4 * rows * cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    lay_out_rails(w.row(r), rail_operand::a,
                  std::span(a).subspan(4 * cols * r, 4 * cols));
    lay_out_rails(w.row(r), rail_operand::b,
                  std::span(b).subspan(4 * cols * r, 4 * cols));
  }
}

vector_matrix_engine::vector_matrix_engine(dot_product_config config,
                                           std::uint64_t seed,
                                           energy_ledger* ledger,
                                           energy_costs costs)
    : config_(config),
      ledger_(ledger),
      costs_(costs),
      row_seed_stream_(seed ^ 0x726f7773ULL /* "rows" */) {}

gemm_result vector_matrix_engine::run(const operands& op,
                                      std::size_t samples_per_cell) {
  const obs::scoped_timer timer(gemm_wall_hist());
  const std::size_t rows = op.rows;
  const std::size_t width = op.passes * op.cols;
  const std::size_t batch = op.samples.size() / width;

  // Fork every row's seed up front, in row order: the only RNG state the
  // workers touch afterwards is row-private, so scheduling cannot change
  // any draw.
  seeds_.resize(rows);
  for (std::uint64_t& s : seeds_) s = row_seed_stream_();

  const std::size_t chunks = (batch + samples_per_cell - 1) / samples_per_cell;
  const std::size_t n_cells = rows * chunks;
  while (slots_.size() < n_cells) {
    slots_.push_back(
        std::make_unique<row_slot>(config_, ledger_ != nullptr, costs_));
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
        slot.unit.skip_passes(s_begin * op.passes, op.cols);
        const auto w_row = op.weights.subspan(r * width, width);
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const auto x = op.samples.subspan(s * width, width);
          cells_[r * batch + s] =
              op.optical_reference_mw > 0.0
                  ? slot.unit.dot_optical_passes(
                        x, w_row, op.optical_reference_mw, op.passes)
                  : slot.unit.dot_passes(w_row, x, op.passes);
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

gemm_result vector_matrix_engine::gemm_signed(const rail_weights& w,
                                              std::span<const double> xs,
                                              std::size_t samples_per_cell) {
  if (w.rows == 0 || w.cols == 0 || xs.empty() ||
      xs.size() % w.cols != 0) {
    throw std::invalid_argument("vector_matrix_engine: gemm shape mismatch");
  }
  // Lay every sample's rails out once (b side); rows share them.
  sample_rails_.resize(4 * xs.size());
  for (std::size_t s = 0; s < xs.size() / w.cols; ++s) {
    lay_out_rails(xs.subspan(s * w.cols, w.cols), rail_operand::b,
                  std::span(sample_rails_).subspan(4 * w.cols * s, 4 * w.cols));
  }
  return run({w.a, sample_rails_, w.rows, w.cols, 4}, samples_per_cell);
}

gemm_result vector_matrix_engine::gemm_optical(
    const rail_weights& w, std::span<const double> received_mw,
    double reference_power_mw, std::size_t samples_per_cell) {
  if (w.rows == 0 || w.cols == 0 || received_mw.empty() ||
      received_mw.size() % (4 * w.cols) != 0 || reference_power_mw <= 0.0) {
    throw std::invalid_argument("vector_matrix_engine: bad optical gemm");
  }
  return run({w.b, received_mw, w.rows, w.cols, 4, reference_power_mw},
             samples_per_cell);
}

gemm_result vector_matrix_engine::gemm_signed(const matrix& w,
                                              std::span<const double> xs) {
  return gemm_signed(rail_weights(w), xs);
}

gemv_result vector_matrix_engine::gemv_signed(const matrix& w,
                                              std::span<const double> x) {
  if (w.cols != x.size()) {
    throw std::invalid_argument("vector_matrix_engine: shape mismatch");
  }
  return gemm_signed(w, x);
}

gemv_result vector_matrix_engine::gemv_unit_range(const matrix& w,
                                                  std::span<const double> x) {
  if (w.rows == 0 || w.cols == 0 || w.cols != x.size()) {
    throw std::invalid_argument("vector_matrix_engine: shape mismatch");
  }
  return run({w.data, x, w.rows, w.cols, 1}, kSamplesPerCell);
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
