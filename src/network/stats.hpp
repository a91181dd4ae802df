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

/// Accumulates samples and reports nearest-rank percentiles.
class summary {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

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
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    return nearest_rank(samples_, pct);
  }

 private:
  mutable std::vector<double> samples_;  ///< sorted lazily by percentile()
  mutable bool sorted_ = true;
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
