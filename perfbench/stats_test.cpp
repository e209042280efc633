// Self-test of stats.hpp: quartiles agree with Python's
// statistics.quantiles(n=4), nearest-rank percentiles leave the stated
// number of samples beyond them, and the tail percentile is the highest
// one backed by the requested count. Exits non-zero on the first failure.
//
//   .bench_build/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_eq(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %zu want %zu\n", what, got, want);
    ++failures;
  }
}

void check_quartiles(const std::vector<double>& v, double q1, double q2,
                     double q3, const char* what) {
  const perfbench::Quartiles q = perfbench::quartiles(v);
  expect_near(q.q1, q1, what);
  expect_near(q.q2, q2, what);
  expect_near(q.q3, q3, what);
}

}  // namespace

int main() {
  using namespace perfbench;

  // Reference values printed by statistics.quantiles(values, n=4).
  check_quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, "q 1..10");
  check_quartiles({3.5, 1.0, 2.0}, 1.0, 2.0, 3.5, "q odd three");
  check_quartiles({5, 1}, 0.0, 3.0, 6.0, "q two extrapolate");
  check_quartiles({2, 8, 4, 6, 10, 12, 1.5}, 2.0, 6.0, 10.0, "q seven");
  check_quartiles({4}, 4, 4, 4, "q single");

  expect_near(median({3, 1, 2}), 2, "median odd");
  expect_near(median({4, 1, 3, 2}), 2.5, "median even");
  expect_near(median({}), 0, "median empty");

  // Nearest rank: p99.9 of 16,598 samples is rank 16,582, leaving 16.
  expect_eq(percentile_rank(16598, 99.9), 16582, "rank p99.9");
  expect_eq(samples_beyond(16598, 99.9), 16, "beyond p99.9");
  // Exact products must not round up a rank (99.9% of 1000 is 999).
  expect_eq(percentile_rank(1000, 99.9), 999, "rank exact");
  expect_eq(samples_beyond(1000, 50), 500, "beyond median");
  expect_eq(samples_beyond(0, 50), 0, "beyond empty");

  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  expect_near(percentile_sorted(sorted, 50), 500, "p50 value");
  expect_near(percentile_sorted(sorted, 99.9), 999, "p99.9 value");
  expect_near(percentile_sorted(sorted, 100), 1000, "p100 value");
  expect_near(percentile_sorted({}, 50), 0, "percentile empty");

  // Highest ladder percentile with at least ten samples beyond it.
  expect_near(highest_supported_percentile(16598, 10), 99.9, "tail 16598");
  expect_near(highest_supported_percentile(10000, 10), 99.9, "tail 10000");
  expect_near(highest_supported_percentile(9999, 10), 99.0, "tail 9999");
  expect_near(highest_supported_percentile(100000, 10), 99.99, "tail 1e5");
  expect_near(highest_supported_percentile(20, 10), 50, "tail 20");
  expect_near(highest_supported_percentile(19, 10), 0, "tail 19");
  for (std::size_t n : {20u, 101u, 999u, 16598u, 61009u}) {
    const double p = highest_supported_percentile(n, 10);
    if (samples_beyond(n, p) < 10) {
      std::fprintf(stderr, "FAIL tail of %zu leaves fewer than 10\n", n);
      ++failures;
    }
  }

  if (failures > 0) return EXIT_FAILURE;
  std::printf("perfbench stats: all checks passed\n");
  return EXIT_SUCCESS;
}
