#include "util/math_util.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/common.h"

namespace histk {

double Median(std::vector<double> values) {
  HISTK_CHECK(!values.empty());
  return LowerMedianInPlace(values.data(), values.size());
}

double Mean(const std::vector<double>& values) {
  HISTK_CHECK(!values.empty());
  return StableSum(values) / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mu) * (v - mu);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double StableSum(const std::vector<double>& values) {
  double sum = 0.0, comp = 0.0;
  for (double v : values) {
    const double y = v - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

WilsonInterval WilsonScore(int64_t successes, int64_t trials) {
  HISTK_CHECK(trials > 0 && successes >= 0 && successes <= trials);
  const double z = 1.96;
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double denom = 1.0 + z * z / n;
  const double center = (phat + z * z / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

int64_t CeilToInt64(double x, int64_t at_least) {
  HISTK_CHECK(std::isfinite(x));
  const int64_t v = static_cast<int64_t>(std::ceil(x));
  return std::max(v, at_least);
}

}  // namespace histk
