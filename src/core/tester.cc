#include "core/tester.h"

#include <string>

#include "util/common.h"

namespace histk {

TestOutcome TestKHistogramOnGroup(const SampleSetGroup& group, const TestConfig& config) {
  HISTK_CHECK(config.k >= 1);
  HISTK_CHECK(config.eps > 0.0 && config.eps < 1.0);
  const int64_t n = group.n();

  TestOutcome out;
  out.total_samples = group.TotalSamples();

  auto flat = [&](Interval I) {
    const FlatnessDecision d =
        config.norm == Norm::kL2
            ? TestFlatnessL2(group, I, config.eps)
            : TestFlatnessL1(group, I, config.eps, config.k);
    return d.accept;
  };

  // Paper's loop, 0-based: previous/low/high index elements of [0, n).
  int64_t previous = 0;
  int64_t low = 0;
  int64_t high = n - 1;
  for (int64_t i = 0; i < config.k && previous <= n - 1; ++i) {
    while (high >= low) {
      const int64_t mid = low + (high - low) / 2;
      if (flat(Interval(previous, mid))) {
        low = mid + 1;
      } else {
        high = mid - 1;
      }
    }
    // low-1 is the farthest endpoint that still tested flat. A singleton
    // always tests flat (z = 1 = 1/|I|), so low > previous: progress.
    HISTK_CHECK_MSG(low > previous, "flatness binary search made no progress");
    out.flat_partition.emplace_back(previous, low - 1);
    previous = low;
    high = n - 1;
  }
  // Accept iff the flat pieces cover the whole domain. (The paper's step 12
  // writes "previous = n", an off-by-one: after a search ending at n the
  // loop leaves previous = n+1 in 1-based terms. Coverage is the intended
  // condition in both proofs' directions.)
  out.accepted = previous > n - 1;
  return out;
}

Status ValidateTestConfig(int64_t n, const TestConfig& config) {
  if (n < 2) return Status::InvalidArgument("test needs a domain of n >= 2");
  if (config.k < 1 || config.k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(config.eps > 0.0 && config.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(config.sample_scale > 0.0)) {
    return Status::InvalidArgument("sample_scale must be positive");
  }
  if (config.r_override < 0 || config.r_override > SampleSetGroup::kMaxSets) {
    return Status::InvalidArgument("r_override must be in [0, " +
                                   std::to_string(SampleSetGroup::kMaxSets) +
                                   "] (0 = paper)");
  }
  const bool representable =
      config.norm == Norm::kL2
          ? L2TesterParamsRepresentable(n, config.eps, config.sample_scale)
          : L1TesterParamsRepresentable(n, config.k, config.eps,
                                        config.sample_scale);
  if (!representable) {
    return Status::InvalidArgument(
        "eps/sample_scale imply a sample count beyond int64 (the formulas "
        "scale as eps^-4 (L2) / eps^-5 (L1))");
  }
  return Status::Ok();
}

TesterParams ComputeTesterParams(int64_t n, const TestConfig& config) {
  TesterParams params =
      config.norm == Norm::kL2
          ? ComputeL2TesterParams(n, config.eps, config.sample_scale)
          : ComputeL1TesterParams(n, config.k, config.eps, config.sample_scale);
  if (config.r_override > 0) params.r = config.r_override;
  return params;
}

TestOutcome TestKHistogram(const Sampler& sampler, const TestConfig& config, Rng& rng) {
  const TesterParams params = ComputeTesterParams(sampler.n(), config);
  // Fused draw→count per set: the tester's r*m draws go straight into
  // collision counts without materializing draw vectors.
  const SampleSetGroup group = SampleSetGroup::Draw(sampler, params.r, params.m, rng);
  TestOutcome out = TestKHistogramOnGroup(group, config);
  out.params = params;
  return out;
}

}  // namespace histk
