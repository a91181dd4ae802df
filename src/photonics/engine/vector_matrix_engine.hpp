// vector_matrix_engine.hpp — time-multiplexed matrix-vector products on P1.
//
// A single dot-product unit evaluates one row at a time (the
// time-multiplexed architecture of Lightning [71] and [50]); this engine
// schedules a full GEMV over it and aggregates latency/energy. Combined
// with a P3 nonlinear unit it executes whole DNN layers, which is how the
// paper's C1 "machine learning inference" use case runs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/nonlinear_unit.hpp"

namespace onfiber::phot {

/// Dense row-major matrix of doubles. Minimal on purpose — this is a
/// simulation payload type, not a linear algebra library.
struct matrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;  ///< rows * cols, row-major

  matrix() = default;
  matrix(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c, 0.0) {}

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data[r * cols + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data[r * cols + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data).subspan(r * cols, cols);
  }
};

/// Aggregated result of a batched GEMM evaluation: `batch` input vectors
/// streamed through one weight matrix.
struct gemm_result {
  std::size_t batch = 0;
  std::vector<double> values;  ///< sample-major: values[s * rows + r]
  double latency_s = 0.0;      ///< total time on the time-multiplexed unit
  std::uint64_t symbols = 0;
};

/// A GEMV is a batch-one GEMM.
using gemv_result = gemm_result;

/// A signed weight matrix split into rails once, each row laid out as
/// both operands of the fused signed kernel (`lay_out_rails`): electrical
/// inputs drive the weights on the a side, on-fiber inputs on the b side.
/// The b side is snapped to the grid of the DAC `dac` once, here, so the
/// on-fiber GEMM skips the per-element quantize; only an engine whose
/// DAC is `dac` accepts it.
struct rail_weights {
  std::size_t rows = 0;
  std::size_t cols = 0;
  converter_config dac;
  std::vector<double> a, b;  ///< rows x 4*cols each

  rail_weights(const matrix& w, const converter_config& dac);
};

class vector_matrix_engine {
 public:
  vector_matrix_engine(dot_product_config config, std::uint64_t seed,
                       energy_ledger* ledger = nullptr,
                       energy_costs costs = {});

  /// Samples per work cell: a constant, never derived from the thread
  /// count, so every float fold is identical at any ONFIBER_THREADS.
  static constexpr std::size_t kSamplesPerCell = 8;

  /// y = W x for signed W, x in [-1, 1]: a batch-one gemm_signed.
  [[nodiscard]] gemv_result gemv_signed(const matrix& w,
                                        std::span<const double> x);

  /// Batched GEMM: `xs` holds batch = xs.size() / w.cols signed input
  /// vectors back to back; every sample streams through the same per-row
  /// weight rails (the photonic analogue of holding the MZM weight bank
  /// steady while symbols fly by).
  [[nodiscard]] gemm_result gemm_signed(const matrix& w,
                                        std::span<const double> xs);

  /// The one GEMM kernel, on weights split once. Row seeds are forked in
  /// row order before dispatch, one per row per call whatever the batch,
  /// so a batch of one is bit-identical to gemv_signed. Work runs as rows
  /// x `samples_per_cell` cells, each on an engine-owned unit re-keyed
  /// from its row seed and seeked past earlier samples in O(1), so every
  /// sample draws the serial loop's noise indices at any thread count.
  /// Cell ledgers merge in (row, cell) order; latency models the single
  /// time-multiplexed analog unit and adds up across rows.
  [[nodiscard]] gemm_result gemm_signed(
      const rail_weights& w, std::span<const double> xs,
      std::size_t samples_per_cell = kSamplesPerCell);

  /// On-fiber twin: the samples arrived optically, `received_mw` holding
  /// each one's received rail powers (`encode_rails_received`, 4 * w.cols
  /// per sample), and the weights ride the b modulator. `w` must be
  /// snapped to this engine's DAC (`rail_weights(m, config.dac)`).
  /// Bit-identical to per-cell units re-keyed from the row seeds, but run
  /// as device passes over the whole GEMM: each row makes one fill per
  /// stream it draws from (b-side DAC, detector, ADC) and one weight pass
  /// per sample, and one readout covers every (row, sample, pass) of the
  /// call. `samples_per_cell` only groups the ledger charges, which merge
  /// in (row, cell) order as the per-cell units' ledgers did.
  [[nodiscard]] gemm_result gemm_optical(
      const rail_weights& w, std::span<const double> received_mw,
      double reference_power_mw,
      std::size_t samples_per_cell = kSamplesPerCell);

  /// Override the worker count (0 = auto: ONFIBER_THREADS env var, else
  /// hardware concurrency). Any value yields bit-identical results.
  void set_threads(std::size_t threads) { threads_override_ = threads; }

 private:
  /// One kernel call: kSignedPasses passes of `cols` symbols per (row,
  /// sample), one per signed rail product (pp, nn, pn, np).
  static constexpr std::size_t kSignedPasses = 4;
  struct operands {
    std::span<const double> weights;  ///< rows x kSignedPasses*cols
    std::span<const double> samples;  ///< batch x kSignedPasses*cols
    std::size_t rows = 0;
    std::size_t cols = 0;
  };

  /// An engine-owned unit and the private ledger it charges.
  struct row_slot {
    energy_ledger ledger;
    dot_product_unit unit;
    row_slot(const dot_product_config& config, bool with_ledger,
             energy_costs costs)
        : unit(config, 0, with_ledger ? &ledger : nullptr, costs) {}
    row_slot(const row_slot&) = delete;  // `unit` points at `ledger`
    row_slot& operator=(const row_slot&) = delete;
  };

  /// The electrical GEMM: rows x cells of re-keyed engine-owned units.
  [[nodiscard]] gemm_result run(const operands& op,
                                std::size_t samples_per_cell);

  /// Fork one seed per row, in row order, into seeds_.
  void fork_row_seeds(std::size_t rows);

  /// Charge the on-fiber GEMM's energy as its per-cell units did: each
  /// cell's sums in sample order, merged in (row, cell) order.
  void charge_on_fiber_cells(std::size_t rows, std::size_t batch,
                             std::size_t cols, std::size_t samples_per_cell);

  /// Signed GEMM with the weights' a-side rails laid out already.
  [[nodiscard]] gemm_result run_signed(std::span<const double> weight_rails,
                                       std::size_t rows, std::size_t cols,
                                       std::span<const double> xs,
                                       std::size_t samples_per_cell);

  /// Device models of the on-fiber GEMM: its invariants, its row keys
  /// and the readout math. Its own streams are never drawn.
  dot_product_unit models_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  rng row_seed_stream_;  ///< forked per row, in row order
  std::size_t threads_override_ = 0;
  /// One slot per electrical work cell, kept for the engine's lifetime;
  /// pool workers touch disjoint slots. The rest is per-call scratch.
  std::vector<std::unique_ptr<row_slot>> slots_;
  std::vector<std::uint64_t> seeds_;
  std::vector<dot_result> cells_;
  std::vector<double> weight_rails_;  ///< a-side rails of a matrix operand
  std::vector<double> sample_rails_;
  /// On-fiber GEMM, row-major over (row, sample): b-side DAC draws and
  /// product powers per symbol; detector and ADC draws and readouts per
  /// pass.
  std::vector<double> dac_noise_, product_;
  std::vector<double> detector_noise_, adc_noise_, readouts_;
};

/// Reference (infinite-precision) GEMV for accuracy comparisons.
[[nodiscard]] std::vector<double> gemv_reference(const matrix& w,
                                                 std::span<const double> x);

}  // namespace onfiber::phot
