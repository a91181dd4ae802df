// Tests for the end-to-end photonic CNN (conv front end + DNN head).
#include "apps/photonic_cnn.hpp"

#include <gtest/gtest.h>

#include "apps/ml_inference.hpp"

namespace onfiber::apps {
namespace {

TEST(PhotonicCnn, DatasetShapeAndDeterminism) {
  const image_dataset a = make_image_dataset(12, 12, 5, 9);
  const image_dataset b = make_image_dataset(12, 12, 5, 9);
  ASSERT_EQ(a.images.size(), 20u);  // 4 classes x 5
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i].pixels, b.images[i].pixels);
    for (const double p : a.images[i].pixels) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(PhotonicCnn, DatasetValidation) {
  EXPECT_THROW((void)make_image_dataset(4, 12, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)make_image_dataset(12, 12, 0, 1),
               std::invalid_argument);
}

TEST(PhotonicCnn, FeatureVectorShapeAndRange) {
  const image_dataset data = make_image_dataset(12, 12, 2, 3);
  const photonic_cnn cnn = train_photonic_cnn(data, 8, 5, 11);
  const auto features = cnn_features_reference(cnn, data.images[0]);
  EXPECT_EQ(features.size(), cnn.feature_dim());
  for (const double f : features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(PhotonicCnn, ReferenceAccuracyHigh) {
  const image_dataset data = make_image_dataset(12, 12, 12, 7);
  const photonic_cnn cnn = train_photonic_cnn(data, 16, 40, 11);
  EXPECT_GE(evaluate_cnn_reference(cnn, data).accuracy, 0.95);
}

TEST(PhotonicCnn, PhotonicMatchesReference) {
  const image_dataset data = make_image_dataset(12, 12, 10, 7);
  const photonic_cnn cnn = train_photonic_cnn(data, 16, 40, 11);
  const cnn_eval ref = evaluate_cnn_reference(cnn, data);
  phot::wdm_gemv_engine conv({}, 5, 42);
  core::photonic_engine head({}, 43);
  head.configure_dnn(to_photonic_task(cnn.head));
  const cnn_eval pho = evaluate_cnn_photonic(cnn, data, conv, head);
  EXPECT_GE(pho.accuracy, ref.accuracy - 0.1);
  EXPECT_GT(pho.mean_latency_s, 0.0);
}

TEST(PhotonicCnn, RequiresConfiguredHead) {
  const image_dataset data = make_image_dataset(12, 12, 1, 3);
  const photonic_cnn cnn = train_photonic_cnn(data, 8, 2, 17);
  phot::wdm_gemv_engine conv({}, 2, 19);
  core::photonic_engine bare({}, 21);
  EXPECT_THROW((void)evaluate_cnn_photonic(cnn, data, conv, bare),
               std::invalid_argument);
}

}  // namespace
}  // namespace onfiber::apps
