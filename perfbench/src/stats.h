// Sample statistics for the benchmark's reported numbers.
//
// A timing is reported as a median plus the highest percentile that has at
// least kMinBeyond samples above it; asking for a percentile the sample
// count cannot support is an error, never a silently noisy number.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Samples that must lie strictly above a reported percentile.
inline constexpr size_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank `p`-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest of p50/p90/p99/p99.9 that `n` samples support, or 0 when
/// not even the median has kMinBeyond samples above it.
double HighestSupportedPercentile(size_t n);

/// Nearest-rank `p`-quantile (0 < p < 1) of `samples`. FailedPrecondition
/// when fewer than kMinBeyond samples lie above it.
mlcask::StatusOr<double> Percentile(std::vector<double> samples, double p);

/// Plain median (average of the middle pair); 0 for no samples. Used for
/// per-layer figures and set-up times, where no tail is claimed.
double Median(std::vector<double> samples);

double Sum(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
