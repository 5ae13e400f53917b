#include "stats.h"

#include <algorithm>
#include <cmath>

namespace sqbench {

size_t NearestRank(double p, size_t n) {
  const double clamped = std::clamp(p, 0.0, 100.0);
  // The epsilon keeps 99.9% of 10000 at 9990 despite rounding.
  const auto rank = static_cast<size_t>(
      std::ceil(clamped * static_cast<double>(n) / 100.0 - 1e-9));
  return std::max<size_t>(rank, 1);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(NearestRank(p, values.size()), values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double TailPercentileFor(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // At least ten samples strictly beyond the nearest-rank position.
    if (samples >= NearestRank(p, samples) + 10) return p;
  }
  return 0.0;
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.samples = values.size();
  s.p50 = Median(values);
  s.tail_pct = TailPercentileFor(values.size());
  s.tail = s.tail_pct > 0.0 ? Percentile(values, s.tail_pct) : 0.0;
  return s;
}

uint64_t RowMultisetHash(const std::vector<std::vector<sqopt::Value>>& rows) {
  uint64_t sum = 0;
  for (const std::vector<sqopt::Value>& row : rows) {
    uint64_t h = 0xCBF29CE484222325ULL ^ row.size();
    for (const sqopt::Value& v : row) {
      h ^= static_cast<uint64_t>(v.Hash()) + 0x9E3779B97F4A7C15ULL +
           (h << 6) + (h >> 2);
    }
    // Finalize so that the sum of row hashes mixes well.
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDULL;
    h = (h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    sum += h;
  }
  return sum;
}

}  // namespace sqbench
