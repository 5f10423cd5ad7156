// Table equivalence for Algorithm 1's candidate scan: the endpoint-indexed
// table GreedyEstimator::PieceCostTable builds (prefix counts per endpoint,
// an incremental sorted median per ai) must hold, for every pair ai <= bi,
// the very bits PieceCost(Interval(e_ai, e_bi)) returns — and z_I must be
// bit-equal to the median of the r per-set ratios, the definition the
// estimator used before it took the integer median. Covers the dense and
// sparse backends, r = 1, r = 4 (even: the lower median) and r = 13,
// endpoints at 0 and n - 1, and intervals where some set has no collision.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "sample/sample_set.h"
#include "stats/estimators.h"
#include "util/rng.h"

namespace histk {
namespace {

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Draws from a seeded random k-histogram over [0, support), mapped to
/// 3 + v * stride so a sparse domain gets a spread-out support.
std::vector<int64_t> Draws(const AliasSampler& sampler, int64_t m, int64_t stride,
                           Rng& rng) {
  std::vector<int64_t> draws = sampler.DrawMany(m, rng);
  if (stride > 1) {
    for (int64_t& v : draws) v = 3 + v * stride;
  }
  return draws;
}

GreedyEstimator MakeEstimator(int64_t n, int64_t support, int64_t r, int64_t m,
                              uint64_t seed) {
  Rng rng(seed);
  const HistogramSpec spec = MakeRandomKHistogram(support, 4, rng, 20.0);
  const AliasSampler sampler(spec.dist);
  const int64_t stride = support == n ? 1 : (n - 4) / support;
  SampleSet main = SampleSet::FromDraws(n, Draws(sampler, 4 * m, stride, rng));
  std::vector<SampleSet> sets;
  for (int64_t j = 0; j < r; ++j) {
    sets.push_back(SampleSet::FromDraws(n, Draws(sampler, m, stride, rng)));
  }
  return GreedyEstimator(std::move(main), SampleSetGroup(std::move(sets)));
}

/// Checks every table entry against PieceCost and z_I against the median
/// of per-set ratios; returns how many intervals had a set with zero
/// collisions (so callers can assert that case was exercised).
int64_t ExpectTableMatches(const GreedyEstimator& est,
                           const std::vector<int64_t>& endpoints) {
  const std::vector<double> table = est.PieceCostTable(endpoints);
  const size_t d = endpoints.size();
  EXPECT_EQ(table.size(), d * (d + 1) / 2);
  int64_t zero_collision_intervals = 0;
  size_t idx = 0;
  for (size_t ai = 0; ai < d; ++ai) {
    for (size_t bi = ai; bi < d; ++bi, ++idx) {
      const Interval J(endpoints[ai], endpoints[bi]);
      if (Bits(table[idx]) != Bits(est.PieceCost(J))) {
        ADD_FAILURE() << J.ToString() << ": table " << table[idx] << " vs PieceCost "
                      << est.PieceCost(J);
        return zero_collision_intervals;
      }
      if (Bits(est.SumSquaresEstimate(J)) !=
          Bits(est.group().MedianSumSquaresEstimate(J))) {
        ADD_FAILURE() << J.ToString() << ": integer median moved z_I";
        return zero_collision_intervals;
      }
      for (int64_t j = 0; j < est.group().r(); ++j) {
        if (est.group().set(j).Collisions(J) == 0) {
          ++zero_collision_intervals;
          break;
        }
      }
    }
  }
  return zero_collision_intervals;
}

std::vector<int64_t> AllPoints(int64_t n) {
  std::vector<int64_t> points;
  for (int64_t e = 0; e < n; ++e) points.push_back(e);
  return points;
}

/// Theorem 2's T' shape: sampled values and their +-1 neighbours, plus the
/// domain's two ends.
std::vector<int64_t> SampleEndpoints(const GreedyEstimator& est) {
  const int64_t n = est.n();
  std::vector<int64_t> points = {0, n - 1};
  for (int64_t v : est.main().distinct_values()) {
    for (int64_t e : {v - 1, v, v + 1}) {
      if (e >= 0 && e < n) points.push_back(e);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

class CandidateTableTest : public testing::TestWithParam<int64_t> {};

TEST_P(CandidateTableTest, DenseAllIntervalsMatchPieceCost) {
  const int64_t r = GetParam();
  // m = 60 over 200 points: plenty of intervals with a collision-free set.
  const GreedyEstimator est = MakeEstimator(200, 200, r, 60, 11 + r);
  const std::vector<int64_t> endpoints = AllPoints(200);
  ASSERT_EQ(endpoints.front(), 0);
  ASSERT_EQ(endpoints.back(), 199);
  EXPECT_GT(ExpectTableMatches(est, endpoints), 0);
}

TEST_P(CandidateTableTest, DenseSampleEndpointsMatchPieceCost) {
  const int64_t r = GetParam();
  const GreedyEstimator est = MakeEstimator(600, 600, r, 200, 23 + r);
  ExpectTableMatches(est, SampleEndpoints(est));
}

TEST_P(CandidateTableTest, SparseBackendMatchesPieceCost) {
  const int64_t r = GetParam();
  const int64_t n = SampleSet::kDenseDomainLimit * 2 + 5;
  const GreedyEstimator est = MakeEstimator(n, 64, r, 300, 37 + r);
  const std::vector<int64_t> endpoints = SampleEndpoints(est);
  ASSERT_EQ(endpoints.front(), 0);
  ASSERT_EQ(endpoints.back(), n - 1);
  // [0, 2] lies below the support: every set has zero collisions there.
  EXPECT_GT(ExpectTableMatches(est, endpoints), 0);
}

INSTANTIATE_TEST_SUITE_P(SetCounts, CandidateTableTest, testing::Values(1, 4, 13));

TEST(CandidateTableEdgeTest, EmptyEndpointListGivesEmptyTable) {
  const GreedyEstimator est = MakeEstimator(32, 32, 3, 50, 5);
  EXPECT_TRUE(est.PieceCostTable({}).empty());
}

TEST(CandidateTableDeathTest, UnequalCollisionSetSizesAreRejected) {
  const AliasSampler sampler(Distribution::Uniform(16));
  Rng rng(7);
  SampleSet main = SampleSet::Draw(sampler, 100, rng);
  std::vector<SampleSet> sets;
  sets.push_back(SampleSet::Draw(sampler, 50, rng));
  sets.push_back(SampleSet::Draw(sampler, 51, rng));
  EXPECT_DEATH(GreedyEstimator(std::move(main), SampleSetGroup(std::move(sets))),
               "unequal set sizes");
}

TEST(CandidateTableDeathTest, SingleSampleCollisionSetsAreRejected) {
  const AliasSampler sampler(Distribution::Uniform(16));
  Rng rng(8);
  SampleSet main = SampleSet::Draw(sampler, 100, rng);
  std::vector<SampleSet> sets;
  sets.push_back(SampleSet::Draw(sampler, 1, rng));
  EXPECT_DEATH(GreedyEstimator(std::move(main), SampleSetGroup(std::move(sets))),
               "at least 2 samples");
}

}  // namespace
}  // namespace histk
