// photonic_cnn.hpp — end-to-end photonic image recognition.
//
// The Figure-1 use case ("image recognition" at site C) done properly: a
// convolutional front end (edge-kernel bank on the P1 tensor core, per
// [19]) feeding pooled features into a photonic-aware-trained MLP head
// executed on the fused P1+P3 engine. Both stages run on analog photonic
// hardware; the digital float pipeline is the accuracy reference.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/convolution.hpp"
#include "core/photonic_engine.hpp"
#include "digital/dnn.hpp"

namespace onfiber::apps {

/// Synthetic image-classification dataset: `per_class` images of each of
/// four texture classes (vertical stripes, horizontal stripes,
/// checkerboard, radial blob), with random phase/contrast and pixel
/// noise. Deterministic per seed.
struct image_dataset {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<frame> images;
  std::vector<std::size_t> labels;
  static constexpr std::size_t classes = 4;
};
[[nodiscard]] image_dataset make_image_dataset(std::size_t width,
                                               std::size_t height,
                                               std::size_t per_class,
                                               std::uint64_t seed);

/// The CNN: conv bank -> 2x2 average pooling -> normalized flat features
/// -> MLP head.
struct photonic_cnn {
  kernel_bank bank;
  digital::dnn_model head;
  std::size_t pooled_w = 0;
  std::size_t pooled_h = 0;

  [[nodiscard]] std::size_t feature_dim() const {
    return bank.kernels.size() * pooled_w * pooled_h;
  }
};

/// Extract the flat feature vector of one image (float conv path).
[[nodiscard]] std::vector<double> cnn_features_reference(
    const photonic_cnn& cnn, const frame& image);

/// Train a CNN on the dataset: the conv bank is the fixed edge extractor,
/// the MLP head is trained (photonic-aware) on the float features.
[[nodiscard]] photonic_cnn train_photonic_cnn(const image_dataset& data,
                                              std::size_t hidden,
                                              std::size_t epochs,
                                              std::uint64_t seed);

/// Accuracy over the dataset.
struct cnn_eval {
  double accuracy = 0.0;
  double mean_latency_s = 0.0;  ///< analog time per image (photonic path)
};

/// Digital float pipeline (reference).
[[nodiscard]] cnn_eval evaluate_cnn_reference(const photonic_cnn& cnn,
                                              const image_dataset& data);

/// Fully photonic pipeline: photonic conv + photonic DNN head on the
/// engine (which must be configured with the head via configure_dnn).
[[nodiscard]] cnn_eval evaluate_cnn_photonic(const photonic_cnn& cnn,
                                             const image_dataset& data,
                                             phot::wdm_gemv_engine& conv_engine,
                                             core::photonic_engine& head_engine);

}  // namespace onfiber::apps
