// vector_matrix_engine.hpp — the one analog driver of P1 (paper Fig. 2a).
//
// A single dot-product unit evaluates one row at a time (the
// time-multiplexed architecture of Lightning [71] and [50]); this engine
// schedules every P1 evaluation over it and aggregates latency/energy:
// a single unsigned dot is a one-row, one-pass call, a signed GEMV or
// GEMM runs each row as four rail passes. Combined with a P3 nonlinear
// unit it executes whole DNN layers, which is how the paper's C1
// "machine learning inference" use case runs.
#pragma once

#include <cstdint>
#include <optional>
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

/// The transmission moments of every level of one DAC grid through a
/// calibrated modulator (`mzm_transfer::drive_moments`, no bias error):
/// level j, the code j / (2^bits - 1) * full_scale a grid snap yields,
/// holds loss * mu(code) and loss^2 * v(code). Computed once per config.
struct drive_moment_table {
  converter_config dac;
  mzm_transfer transfer;       ///< bias error 0
  std::vector<moments> level;  ///< 2^bits entries

  explicit drive_moment_table(const dot_product_config& config);

  /// The grid level of a code already on the grid.
  [[nodiscard]] std::size_t index_of(double code) const;

  /// The moments of a code already on the grid.
  [[nodiscard]] const moments& at(double code) const {
    return level[index_of(code)];
  }

  /// Whether this table is of DAC `d` driving transfer `t`.
  [[nodiscard]] bool tabulates(const converter_config& d,
                               const mzm_transfer& t) const;
};

/// A signed weight matrix split into rails once, each row laid out as
/// both operands of the fused signed kernel (`lay_out_rails`) and
/// snapped to the grid of the config's DAC: electrical inputs drive the
/// weights on the a side, on-fiber inputs on the b side. Each snapped
/// code also keeps its transmission moments through the config's
/// calibrated modulator, so a GEMM pass only sums them. Only an engine
/// of the same DAC and modulator accepts the weights.
struct rail_weights {
  std::size_t rows = 0;
  std::size_t cols = 0;
  converter_config dac;
  mzm_transfer transfer;     ///< calibrated: bias error 0
  std::vector<double> a, b;  ///< rows x 4*cols snapped codes each
  /// Per code of a and b: loss * mu and loss^2 * v.
  std::vector<double> a_mean, a_var, b_mean, b_var;

  rail_weights(const matrix& w, const dot_product_config& config);
};

/// The analog P1 kernel. Every call runs as device passes over row
/// ranges. A readout integrates `cols` independent per-symbol products,
/// so it draws its sum once, from the sum's exact mean and variance given
/// what it modulates: on fiber, sum_i p_i M_i + sqrt(sum_i p_i^2 V_i) * n
/// over the received powers p and the weights' transmission moments M, V
/// (`drive_moment_table`); electrically, the product moments of the
/// carrier's RIN, the a-side weight drive and the b-side sample drive.
/// Then the detector and ADC read the sum out. A range makes one fill per
/// readout stream kind for all its rows, one moment pass per row and
/// sample, and one readout of all its (row, sample, pass) readouts. The
/// whole call is one range unless it is large enough to pay for the pool
/// (kPoolBreakEvenWork). Row seeds are forked in row order before
/// dispatch, one per row per call whatever the batch; row r draws from
/// streams keyed off its seed as a dot_product_unit(config, row seed)
/// keys its devices, readout (s, k) at draw index s * passes + k on the
/// row's b-side DAC key, detector and ADC keys. Results are bit-identical
/// at any thread count and a batch of one is bit-identical to
/// gemv_signed. Latency models the single time-multiplexed analog unit
/// and adds up across rows; the ledger takes one cell per row, merged in
/// row order.
class vector_matrix_engine {
 public:
  vector_matrix_engine(dot_product_config config, std::uint64_t seed,
                       energy_ledger* ledger = nullptr,
                       energy_costs costs = {});

  /// Dot product of two vectors with elements in [0, 1], averaged over
  /// `repeats` evaluations: one unsigned row, `a` snapped to the DAC
  /// grid, against a batch of `repeats` copies of `b`. Averaging is the
  /// §4 noise mitigation ("new algorithms to mitigate photonic noise
  /// during computation"): analog noise shrinks ~1/sqrt(repeats), and
  /// laser RIN dithers the readout quantization floor down too. Latency
  /// and symbols add up over the repeats. Requires a.size() == b.size(),
  /// both non-empty, and repeats >= 1.
  [[nodiscard]] dot_result dot_unit_range(std::span<const double> a,
                                          std::span<const double> b,
                                          int repeats = 1);

  /// y = W x for signed W, x in [-1, 1]: a batch-one gemm_signed.
  [[nodiscard]] gemv_result gemv_signed(const matrix& w,
                                        std::span<const double> x);

  /// Batched GEMM: `xs` holds batch = xs.size() / w.cols signed input
  /// vectors back to back; every sample streams through the same per-row
  /// weight rails (the photonic analogue of holding the MZM weight bank
  /// steady while symbols fly by).
  [[nodiscard]] gemm_result gemm_signed(const matrix& w,
                                        std::span<const double> xs);

  /// The electrical (OEO) GEMM on weights split once: the samples were
  /// digitized, so every pass puts the carrier through the weights on
  /// the a side and re-encodes the sample through the b-side DAC and
  /// modulator. `w` must be snapped to this engine's DAC
  /// (`rail_weights(m, config.dac)`).
  [[nodiscard]] gemm_result gemm_signed(const rail_weights& w,
                                        std::span<const double> xs);

  /// On-fiber twin: the samples arrived optically, `received_mw` holding
  /// each one's received rail powers (`encode_rails_received`, 4 * w.cols
  /// per sample), and the weights ride the b modulator alone. `w` must be
  /// snapped to this engine's DAC.
  [[nodiscard]] gemm_result gemm_optical(const rail_weights& w,
                                         std::span<const double> received_mw,
                                         double reference_power_mw);

  /// Override the worker count (0 = auto: ONFIBER_THREADS env var, else
  /// hardware concurrency). Any value yields bit-identical results.
  void set_threads(std::size_t threads) { threads_override_ = threads; }

 private:
  /// Each row's passes for the side they drive: snapped codes and their
  /// calibrated transmission moments, rows x passes*cols each.
  struct row_operand {
    std::span<const double> codes, mean, var;
  };

  /// The drive moment table, built on first use.
  [[nodiscard]] const drive_moment_table& drive();

  /// Look up the moments of snapped weight codes in weight_rails_.
  [[nodiscard]] row_operand weight_operand();

  /// Signed GEMM on snapped a-side weight rails: snaps the samples'
  /// b-side rails once and runs the passes.
  [[nodiscard]] gemm_result run_signed(const row_operand& w, std::size_t rows,
                                       std::size_t cols,
                                       std::span<const double> xs);

  /// The one P1 driver. Each row is `passes` equal passes of `cols`:
  /// 1 (unsigned) or 4 (signed rails, combined pp + nn - pn - np).
  /// `w` holds each row's passes for the side they drive. `samples`
  /// holds batch x passes*cols values: the samples' snapped b-side codes
  /// (electrical, the carrier through the weights on the a side) or
  /// their received powers (optical). `full_scale_mw` calibrates the
  /// readout.
  [[nodiscard]] gemm_result run_passes(const row_operand& w, std::size_t rows,
                                       std::size_t cols, std::size_t passes,
                                       std::span<const double> samples,
                                       double full_scale_mw, bool optical);

  /// Charge the ledger as one unit per row did over the whole batch,
  /// rows merged in row order.
  void charge_row_cells(std::size_t rows, std::size_t batch,
                        std::size_t cols, std::size_t passes, bool optical);

  /// Device models of the driver: its invariants, its row keys and the
  /// readout math. Its own streams are never drawn.
  dot_product_unit models_;
  /// Both modulators' drive moments without a bias error, tabulated on
  /// the first P1 call: an engine that serves only P2 and P3 never
  /// builds them.
  std::optional<drive_moment_table> drive_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
  rng row_seed_stream_;  ///< forked per row, in row order
  std::size_t threads_override_ = 0;
  /// Per-call scratch.
  std::vector<std::uint64_t> seeds_;
  row_keys keys_;  ///< every row's stream keys, per stream kind
  std::vector<double> weight_rails_;  ///< snapped a-side row operand
  std::vector<double> weight_mean_, weight_var_;  ///< and its moments
  std::vector<double> sample_rails_;  ///< snapped b-side samples
  /// Per sample symbol, shared by every row: on fiber the received power
  /// squared; electrically the b-side drive's moments M, V and M^2 + V.
  std::vector<double> sample_sq_, sample_mean_, sample_var_;
  /// Electrical rows' per-symbol coefficients of the readout moments.
  std::vector<double> row_m_, row_g_, row_h_;
  /// Row-major over (row, sample, pass): each readout's sum moments and
  /// value.
  std::vector<double> sums_, sum_var_, readouts_;
  /// Per row range, kind-major: the keys and draws of its readout
  /// streams (sum, detector, ADC).
  std::vector<std::uint64_t> fill_keys_;
  std::vector<double> draws_;
};

/// Reference (infinite-precision) GEMV for accuracy comparisons.
[[nodiscard]] std::vector<double> gemv_reference(const matrix& w,
                                                 std::span<const double> x);

}  // namespace onfiber::phot
