#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace perfbench {

namespace {

/// 1-based nearest rank of the `p`-quantile of `n` samples. The epsilon
/// keeps 0.9 * 100 at rank 90 despite binary floating point.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    if (SamplesBeyond(n, p) >= kMinBeyond) best = p;
  }
  return best;
}

mlcask::StatusOr<double> Percentile(std::vector<double> samples, double p) {
  if (!(p > 0 && p < 1)) {
    return mlcask::Status::InvalidArgument("percentile must lie in (0, 1)");
  }
  const size_t n = samples.size();
  if (SamplesBeyond(n, p) < kMinBeyond) {
    return mlcask::Status::FailedPrecondition(
        "p" + std::to_string(p * 100) + " needs " +
        std::to_string(kMinBeyond) + " samples beyond it; have " +
        std::to_string(n) + " samples");
  }
  const size_t index = NearestRank(n, p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double Sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

}  // namespace perfbench
