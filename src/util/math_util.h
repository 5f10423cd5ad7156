// Small numeric helpers used throughout histk.
#ifndef HISTK_UTIL_MATH_UTIL_H_
#define HISTK_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace histk {

/// C(m, 2) = m(m-1)/2 as an unsigned 64-bit value (m up to ~6e9 is safe).
inline uint64_t PairCount(uint64_t m) { return m < 2 ? 0 : m * (m - 1) / 2; }

/// The one median rule of histk's median-of-r combiners: the lower median,
/// the element at index (r - 1) / 2 of r >= 1 values in ascending order.
constexpr size_t LowerMedianIndex(size_t r) { return (r - 1) / 2; }

/// The lower median of vals[0, r), r >= 1, selected in place (reorders
/// vals). A pure selection, so any order-preserving map of the values
/// commutes with it.
template <typename T>
T LowerMedianInPlace(T* vals, size_t r) {
  T* const mid = vals + LowerMedianIndex(r);
  std::nth_element(vals, mid, vals + r);
  return *mid;
}

/// Median of a vector (lower median for even sizes). Copies its input so the
/// caller's order is preserved. Requires a non-empty vector.
double Median(std::vector<double> values);

/// Mean of a non-empty vector.
double Mean(const std::vector<double>& values);

/// Unbiased sample standard deviation (0 for size < 2).
double StdDev(const std::vector<double>& values);

/// Kahan-compensated sum.
double StableSum(const std::vector<double>& values);

/// Wilson score interval for a binomial proportion at ~95% confidence.
/// Returns {lower, upper}.
struct WilsonInterval {
  double lower;
  double upper;
};
WilsonInterval WilsonScore(int64_t successes, int64_t trials);

/// ceil(a / b) for positive integers.
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Rounds a positive double up to int64 with a floor of `at_least`.
int64_t CeilToInt64(double x, int64_t at_least = 1);

}  // namespace histk

#endif  // HISTK_UTIL_MATH_UTIL_H_
