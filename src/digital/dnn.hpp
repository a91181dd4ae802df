// dnn.hpp — feed-forward DNN model definition plus digital reference
// inference (float and int8-quantized).
//
// The model type is shared: the digital baselines here execute it with
// device cost accounting, and apps/ml maps the *same* weights onto the
// photonic engines (P1 GEMV + P3 activation). A tiny deterministic
// trainer is included so tests and benches can build a model that
// actually separates the synthetic dataset — substituting for the
// pre-trained models the paper assumes are "distributed across network
// devices in advance" (§4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digital/device_model.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/rng.hpp"

namespace onfiber::digital {

/// Hidden-layer activation function.
///
/// `photonic_sin2` is the normalized transfer of the P3 electro-optic
/// nonlinearity (Fig. 2c): with u = clamp(z/scale, 0, 1),
/// h(z) = u * sin^2((pi/2) * u) — input power times the self-driven
/// modulator transmission.
/// Training with it ("photonic-aware training", following the
/// accelerated-training approach of Bandyopadhyay et al. [9]) is what
/// makes models survive execution on the analog engine; training with
/// plain ReLU and deploying photonically measurably degrades accuracy —
/// an ablation bench E7 runs.
enum class activation_kind : std::uint8_t { relu, photonic_sin2 };

/// Evaluate the activation (scale only affects photonic_sin2).
[[nodiscard]] double apply_activation(activation_kind kind, double z,
                                      double scale);
/// Its derivative dz (for backprop).
[[nodiscard]] double activation_derivative(activation_kind kind, double z,
                                           double scale);

/// One dense layer: y = act(W x + b), weights in [-1, 1].
struct dense_layer {
  phot::matrix weights;        ///< rows = out_dim, cols = in_dim
  std::vector<double> bias;    ///< out_dim
  bool relu = true;            ///< apply the model's activation (final
                               ///< layer typically false)
};

/// Multi-layer perceptron.
struct dnn_model {
  std::vector<dense_layer> layers;
  activation_kind activation = activation_kind::relu;
  double activation_scale = 2.0;  ///< pre-activation full scale (photonic)

  [[nodiscard]] std::size_t output_dim() const {
    return layers.empty() ? 0 : layers.back().weights.rows;
  }
  /// Total multiply-accumulates of one inference.
  [[nodiscard]] std::uint64_t mac_count() const {
    std::uint64_t macs = 0;
    for (const auto& l : layers) {
      macs += static_cast<std::uint64_t>(l.weights.rows) * l.weights.cols;
    }
    return macs;
  }
};

/// Float (reference) forward pass.
[[nodiscard]] std::vector<double> infer_reference(const dnn_model& model,
                                                  std::span<const double> x);

/// Result of an accounted digital inference.
struct digital_inference_result {
  std::vector<double> logits;
  double latency_s = 0.0;
  double energy_j = 0.0;
};

/// Int8-quantized inference on a digital device model: weights and
/// activations quantized to 8 bits (same resolution as the photonic
/// DAC/ADC path), latency/energy charged per the device model.
[[nodiscard]] digital_inference_result infer_int8(const dnn_model& model,
                                                  std::span<const double> x,
                                                  const device_model& device);

/// argmax helper for classification outputs.
[[nodiscard]] std::size_t argmax(std::span<const double> v);

// ------------------------------------------------------------ training

/// Deterministic synthetic classification dataset: `classes` Gaussian
/// clusters in [0,1]^dim (class means drawn from the seed), n per class.
struct dataset {
  std::size_t dim = 0;
  std::size_t classes = 0;
  std::vector<std::vector<double>> samples;
  std::vector<std::size_t> labels;
};

[[nodiscard]] dataset make_synthetic_dataset(std::size_t dim,
                                             std::size_t classes,
                                             std::size_t per_class,
                                             double cluster_sigma,
                                             std::uint64_t seed);

/// Train an MLP with plain SGD + backprop on the dataset (deterministic).
/// Hidden layers use `activation`; weights are clipped to [-1,1] each step
/// so the model is directly mappable onto the photonic engine's dynamic
/// range.
[[nodiscard]] dnn_model train_mlp(
    const dataset& data, const std::vector<std::size_t>& hidden_dims,
    std::size_t epochs, double learning_rate, std::uint64_t seed,
    activation_kind activation = activation_kind::relu,
    double activation_scale = 2.0);

/// Classification accuracy of `infer` outputs on the dataset using the
/// float reference path.
[[nodiscard]] double reference_accuracy(const dnn_model& model,
                                        const dataset& data);

}  // namespace onfiber::digital
