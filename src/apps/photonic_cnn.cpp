#include "apps/photonic_cnn.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/compute_packets.hpp"
#include "apps/ml_inference.hpp"
#include "photonics/rng.hpp"

namespace onfiber::apps {

image_dataset make_image_dataset(std::size_t width, std::size_t height,
                                 std::size_t per_class, std::uint64_t seed) {
  if (width < 8 || height < 8 || per_class == 0) {
    throw std::invalid_argument("make_image_dataset: images >= 8x8");
  }
  phot::rng gen(seed);
  image_dataset d;
  d.width = width;
  d.height = height;
  for (std::size_t cls = 0; cls < image_dataset::classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      frame img(width, height);
      const double phase = gen.uniform(0.0, 2.0 * std::numbers::pi);
      const double freq = gen.uniform(1.5, 2.5);
      const double contrast = gen.uniform(0.3, 0.45);
      for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
          const double u =
              static_cast<double>(x) / static_cast<double>(width);
          const double v =
              static_cast<double>(y) / static_cast<double>(height);
          double value = 0.5;
          switch (cls) {
            case 0:  // vertical stripes
              value += contrast *
                       std::sin(2.0 * std::numbers::pi * freq * u + phase);
              break;
            case 1:  // horizontal stripes
              value += contrast *
                       std::sin(2.0 * std::numbers::pi * freq * v + phase);
              break;
            case 2:  // checkerboard
              value += contrast *
                       std::sin(2.0 * std::numbers::pi * freq * u + phase) *
                       std::sin(2.0 * std::numbers::pi * freq * v + phase);
              break;
            default: {  // radial blob
              const double dx = u - 0.5, dy = v - 0.5;
              value += contrast *
                       std::cos(2.0 * std::numbers::pi * freq *
                                    std::sqrt(dx * dx + dy * dy) +
                                phase);
              break;
            }
          }
          value += gen.normal(0.0, 0.02);
          img.at(x, y) = std::clamp(value, 0.0, 1.0);
        }
      }
      d.images.push_back(std::move(img));
      d.labels.push_back(cls);
    }
  }
  return d;
}

namespace {

/// 2x2 average pooling + affine normalization into [0, 1].
/// Conv outputs with unit-range kernels and centered pixels lie within
/// roughly [-s, s] with s = kernel taps * 0.5; we use a fixed scale so
/// the mapping is identical for the reference and photonic paths.
std::vector<double> pool_and_normalize(const feature_maps& maps,
                                       std::size_t pooled_w,
                                       std::size_t pooled_h,
                                       double feature_scale) {
  std::vector<double> out;
  out.reserve(maps.maps.size() * pooled_w * pooled_h);
  for (const auto& map : maps.maps) {
    for (std::size_t py = 0; py < pooled_h; ++py) {
      for (std::size_t px = 0; px < pooled_w; ++px) {
        double acc = 0.0;
        int count = 0;
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t x = px * 2 + dx;
            const std::size_t y = py * 2 + dy;
            if (x < maps.width && y < maps.height) {
              acc += map[y * maps.width + x];
              ++count;
            }
          }
        }
        const double mean = count > 0 ? acc / count : 0.0;
        // Magnitude features: edge kernels are signed, texture energy is
        // what separates the classes.
        out.push_back(std::clamp(std::abs(mean) / feature_scale, 0.0, 1.0));
      }
    }
  }
  return out;
}

constexpr double feature_scale = 0.6;

}  // namespace

std::vector<double> cnn_features_reference(const photonic_cnn& cnn,
                                           const frame& image) {
  const feature_maps maps = conv2d_reference(image, cnn.bank);
  return pool_and_normalize(maps, cnn.pooled_w, cnn.pooled_h, feature_scale);
}

photonic_cnn train_photonic_cnn(const image_dataset& data, std::size_t hidden,
                                std::size_t epochs, std::uint64_t seed) {
  if (data.images.empty()) {
    throw std::invalid_argument("train_photonic_cnn: empty dataset");
  }
  photonic_cnn cnn;
  cnn.bank = make_edge_kernel_bank();
  const std::size_t conv_w = data.width - cnn.bank.size + 1;
  const std::size_t conv_h = data.height - cnn.bank.size + 1;
  cnn.pooled_w = (conv_w + 1) / 2;
  cnn.pooled_h = (conv_h + 1) / 2;

  // Train the head on float features (photonic-aware activation so the
  // analog engine reproduces it).
  digital::dataset features;
  features.dim = cnn.feature_dim();
  features.classes = image_dataset::classes;
  for (std::size_t i = 0; i < data.images.size(); ++i) {
    features.samples.push_back(cnn_features_reference(cnn, data.images[i]));
    features.labels.push_back(data.labels[i]);
  }
  cnn.head = digital::train_mlp(features, {hidden}, epochs, 0.08, seed,
                                digital::activation_kind::photonic_sin2, 2.0);
  return cnn;
}

cnn_eval evaluate_cnn_reference(const photonic_cnn& cnn,
                                const image_dataset& data) {
  cnn_eval eval;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.images.size(); ++i) {
    const auto features = cnn_features_reference(cnn, data.images[i]);
    const auto logits = digital::infer_reference(cnn.head, features);
    if (digital::argmax(logits) == data.labels[i]) ++correct;
  }
  eval.accuracy = data.images.empty()
                      ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(data.images.size());
  return eval;
}

cnn_eval evaluate_cnn_photonic(const photonic_cnn& cnn,
                               const image_dataset& data,
                               phot::wdm_gemv_engine& conv_engine,
                               core::photonic_engine& head_engine) {
  if (!head_engine.supports(proto::primitive_id::p1_p3_dnn)) {
    throw std::invalid_argument(
        "evaluate_cnn_photonic: head engine lacks the DNN task");
  }
  cnn_eval eval;
  std::size_t correct = 0;
  double latency = 0.0;
  const net::ipv4 src(10, 0, 0, 2), dst(10, 3, 0, 2);
  for (std::size_t i = 0; i < data.images.size(); ++i) {
    const feature_maps maps =
        conv2d_photonic(data.images[i], cnn.bank, conv_engine);
    latency += maps.latency_s;
    const auto features =
        pool_and_normalize(maps, cnn.pooled_w, cnn.pooled_h, feature_scale);
    net::packet pkt = core::make_dnn_request(
        src, dst, features, cnn.head.output_dim(),
        static_cast<std::uint32_t>(i));
    const auto rep = head_engine.process(pkt);
    if (!rep.computed) {
      throw std::runtime_error("evaluate_cnn_photonic: head did not compute");
    }
    latency += rep.compute_latency_s;
    const auto result = core::read_dnn_result(pkt);
    if (result && result->predicted_class == data.labels[i]) ++correct;
  }
  const auto n = static_cast<double>(data.images.size());
  eval.accuracy = n > 0 ? static_cast<double>(correct) / n : 0.0;
  eval.mean_latency_s = n > 0 ? latency / n : 0.0;
  return eval;
}

}  // namespace onfiber::apps
