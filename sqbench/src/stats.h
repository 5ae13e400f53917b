// Small statistics helpers: percentiles, the tail-percentile rule, and
// an order-insensitive hash of a result's row multiset.
#ifndef SQBENCH_STATS_H_
#define SQBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types/value.h"

namespace sqbench {

// 1-based nearest rank of percentile p (in [0, 100]) among n samples:
// ceil(p/100 * n), at least 1.
size_t NearestRank(double p, size_t n);

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// The highest of 99.9, 99, 95, 90, 75 and 50 that has at least ten of
// `samples` beyond it, i.e. samples * (1 - p/100) >= 10. 0 when even
// the median has fewer than ten beyond it (fewer than 20 samples).
double TailPercentileFor(size_t samples);

// Median and rule-chosen tail of one latency sample set.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t samples = 0;
};
LatencySummary Summarize(const std::vector<double>& values);

// Order-insensitive hash of a row multiset: two results hash equal iff
// they hold the same rows with the same multiplicities (up to hash
// collisions).
uint64_t RowMultisetHash(const std::vector<std::vector<sqopt::Value>>& rows);

}  // namespace sqbench

#endif  // SQBENCH_STATS_H_
