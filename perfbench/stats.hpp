// Order statistics of the end-to-end simulation benchmark.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n), so exactly
// n - rank samples lie beyond it. That makes "how many samples back this
// tail figure" an integer the harness can report and check. Quartiles
// follow Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), so a spread printed here equals the one a script recomputes
// from the same values.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle samples for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of the p-th percentile among n samples (n >= 1).
inline std::size_t percentile_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) -
                                         1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly after the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - percentile_rank(n, p);
}

/// Nearest-rank percentile of already sorted samples; 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[percentile_rank(sorted.size(), p) - 1];
}

/// Highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999 that
/// leaves at least `min_beyond` of n samples beyond it; 0 when even the
/// median does not.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond) {
  static constexpr std::array<double, 6> kLadder = {99.999, 99.99, 99.9,
                                                    99.0,   90.0,  50.0};
  for (double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

/// statistics.quantiles(values, n=4) with the default exclusive method.
/// Throws std::invalid_argument for fewer than one sample.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return {q[0], q[1], q[2]};
}

}  // namespace perfbench
