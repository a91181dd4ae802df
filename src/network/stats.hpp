// stats.hpp — small statistics helpers used by tests and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace onfiber::net {

/// Nearest-rank percentile of non-empty ascending samples: the
/// ceil(pct/100 * n)-th smallest, the smallest at pct = 0. The caller
/// checks pct is in [0, 100].
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted,
                                         double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Accumulates samples and reports summary statistics.
class summary {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_dirty_ = true;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double stddev() const {
    if (samples_.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double x : samples_) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
  }

  [[nodiscard]] double min() const {
    return samples_.empty() ? 0.0 : sorted().front();
  }

  [[nodiscard]] double max() const {
    return samples_.empty() ? 0.0 : sorted().back();
  }

  /// Percentile in [0, 100] by nearest-rank on the sorted samples; 0
  /// when empty. A NaN pct throws std::invalid_argument.
  [[nodiscard]] double percentile(double pct) const {
    if (std::isnan(pct)) {
      throw std::invalid_argument("summary: NaN percentile");
    }
    if (samples_.empty()) return 0.0;
    if (pct < 0.0 || pct > 100.0) {
      throw std::invalid_argument("summary: percentile out of range");
    }
    return nearest_rank(sorted(), pct);
  }

  /// The samples in insertion order — guaranteed: order statistics work
  /// on a lazily sorted scratch copy, so calling percentile()/min()/max()
  /// never reorders what this returns.
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

 private:
  /// Lazily sorted scratch copy; rebuilt after adds, never touching the
  /// insertion-ordered samples_.
  const std::vector<double>& sorted() const {
    if (sorted_dirty_) {
      sorted_scratch_ = samples_;
      std::sort(sorted_scratch_.begin(), sorted_scratch_.end());
      sorted_dirty_ = false;
    }
    return sorted_scratch_;
  }

  std::vector<double> samples_;
  mutable std::vector<double> sorted_scratch_;
  mutable bool sorted_dirty_ = false;
};

/// Jain's fairness index of a load vector: (sum x)^2 / (n * sum x^2).
/// 1.0 == perfectly balanced; 1/n == all load on one element.
[[nodiscard]] inline double jain_fairness(const std::vector<double>& loads) {
  if (loads.empty()) return 1.0;
  double sum = 0.0, sq = 0.0;
  for (double x : loads) {
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(loads.size()) * sq);
}

}  // namespace onfiber::net
