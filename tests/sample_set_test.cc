#include "sample/sample_set.h"

#include <vector>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "util/math_util.h"

namespace histk {
namespace {

// A fixed multiset over n=10: value -> occurrences.
std::vector<int64_t> FixedDraws() {
  return {0, 0, 0, 2, 2, 5, 5, 5, 5, 9, 3};  // occ: 0->3, 2->2, 3->1, 5->4, 9->1
}

int64_t BruteCount(const std::vector<int64_t>& draws, Interval I) {
  int64_t c = 0;
  for (int64_t v : draws) c += I.Contains(v) ? 1 : 0;
  return c;
}

uint64_t BruteCollisions(const std::vector<int64_t>& draws, int64_t n, Interval I) {
  std::vector<uint64_t> occ(static_cast<size_t>(n), 0);
  for (int64_t v : draws) ++occ[static_cast<size_t>(v)];
  uint64_t coll = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (I.Contains(i)) coll += PairCount(occ[static_cast<size_t>(i)]);
  }
  return coll;
}

class SampleSetBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  // Builds with the dense backend (param=true) or forces sparse by using
  // FromDraws on a domain beyond the dense limit and mapping back.
  SampleSet Build(int64_t n, const std::vector<int64_t>& draws) {
    if (GetParam()) return SampleSet::FromDraws(n, draws);
    // Sparse: same data, domain inflated past the dense limit; interval
    // queries against the original domain still work since extra domain is
    // empty. We instead exercise the sparse path directly with huge n.
    return SampleSet::FromDraws(SampleSet::kDenseDomainLimit + n, draws);
  }
};

TEST_P(SampleSetBackendTest, CountMatchesBruteForceOnAllIntervals) {
  const auto draws = FixedDraws();
  const SampleSet s = Build(10, draws);
  for (int64_t lo = 0; lo < 10; ++lo) {
    for (int64_t hi = lo; hi < 10; ++hi) {
      EXPECT_EQ(s.Count(Interval(lo, hi)), BruteCount(draws, Interval(lo, hi)))
          << "[" << lo << "," << hi << "]";
    }
  }
}

TEST_P(SampleSetBackendTest, CollisionsMatchBruteForceOnAllIntervals) {
  const auto draws = FixedDraws();
  const SampleSet s = Build(10, draws);
  for (int64_t lo = 0; lo < 10; ++lo) {
    for (int64_t hi = lo; hi < 10; ++hi) {
      EXPECT_EQ(s.Collisions(Interval(lo, hi)),
                BruteCollisions(draws, 10, Interval(lo, hi)));
    }
  }
}

TEST_P(SampleSetBackendTest, EmptyIntervalYieldsZero) {
  const SampleSet s = Build(10, FixedDraws());
  EXPECT_EQ(s.Count(Interval::Empty()), 0);
  EXPECT_EQ(s.Collisions(Interval::Empty()), 0u);
}

TEST_P(SampleSetBackendTest, DistinctValuesSortedUnique) {
  const SampleSet s = Build(10, FixedDraws());
  EXPECT_EQ(s.distinct_values(), (std::vector<int64_t>{0, 2, 3, 5, 9}));
}

INSTANTIATE_TEST_SUITE_P(DenseAndSparse, SampleSetBackendTest, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "Dense" : "Sparse"; });

TEST(SampleSetTest, FromCountsMatchesFromDraws) {
  const auto draws = FixedDraws();
  const SampleSet a = SampleSet::FromDraws(10, draws);
  std::vector<int64_t> counts(10, 0);
  for (int64_t v : draws) ++counts[static_cast<size_t>(v)];
  const SampleSet b = SampleSet::FromCounts(10, counts);
  EXPECT_EQ(a.m(), b.m());
  for (int64_t lo = 0; lo < 10; ++lo) {
    for (int64_t hi = lo; hi < 10; ++hi) {
      EXPECT_EQ(a.Count(Interval(lo, hi)), b.Count(Interval(lo, hi)));
      EXPECT_EQ(a.Collisions(Interval(lo, hi)), b.Collisions(Interval(lo, hi)));
    }
  }
}

TEST(SampleSetTest, SumSquaresEstimateExactValue) {
  // occ: {3,2,1,4,1}; coll = 3+1+0+6+0 = 10; m=11 -> C(11,2)=55.
  const SampleSet s = SampleSet::FromDraws(10, FixedDraws());
  EXPECT_DOUBLE_EQ(s.SumSquaresEstimate(Interval::Full(10)), 10.0 / 55.0);
  // Restricted to [0,2]: coll = 3 + 1 = 4.
  EXPECT_DOUBLE_EQ(s.SumSquaresEstimate(Interval(0, 2)), 4.0 / 55.0);
}

TEST(SampleSetTest, CondCollisionRateExactValue) {
  const SampleSet s = SampleSet::FromDraws(10, FixedDraws());
  // [0,2]: |S_I| = 5, coll = 4 -> 4 / C(5,2)=10.
  EXPECT_DOUBLE_EQ(s.CondCollisionRate(Interval(0, 2)).value(), 0.4);
  // Interval with one sample: no pairs.
  EXPECT_FALSE(s.CondCollisionRate(Interval(9, 9)).has_value());
  // Interval with zero samples.
  EXPECT_FALSE(s.CondCollisionRate(Interval(6, 8)).has_value());
}

TEST(SampleSetTest, CondCollisionRateIsOneOnSingletonSupport) {
  // All samples equal -> conditional collision rate is exactly 1.
  const SampleSet s = SampleSet::FromDraws(4, {2, 2, 2, 2, 2});
  EXPECT_DOUBLE_EQ(s.CondCollisionRate(Interval(0, 3)).value(), 1.0);
}

TEST(SampleSetTest, EstimatorConcentratesOnUniform) {
  // E[coll rate] = ||p||^2 = 1/n; check a big draw lands near it.
  const int64_t n = 64;
  const AliasSampler sampler(Distribution::Uniform(n));
  Rng rng(41);
  const SampleSet s = SampleSet::Draw(sampler, 200000, rng);
  EXPECT_NEAR(s.SumSquaresEstimate(Interval::Full(n)), 1.0 / 64.0, 0.002);
  EXPECT_NEAR(s.CondCollisionRate(Interval::Full(n)).value(), 1.0 / 64.0, 0.002);
}

TEST(SampleSetTest, EstimatorConcentratesOnSkewed) {
  const Distribution d = MakeZipf(32, 1.5);
  const AliasSampler sampler(d);
  Rng rng(42);
  const SampleSet s = SampleSet::Draw(sampler, 200000, rng);
  EXPECT_NEAR(s.SumSquaresEstimate(Interval::Full(32)), d.L2NormSquared(), 0.01);
  // Lemma 1 version on a sub-interval.
  EXPECT_NEAR(s.SumSquaresEstimate(Interval(0, 3)), d.SumSquares(Interval(0, 3)), 0.01);
}

TEST(SampleSetGroupTest, MedianEstimatesAreStable) {
  const Distribution d = MakeZipf(32, 1.0);
  const AliasSampler sampler(d);
  Rng rng(43);
  const SampleSetGroup g = SampleSetGroup::Draw(sampler, 9, 20000, rng);
  EXPECT_EQ(g.r(), 9);
  EXPECT_EQ(g.TotalSamples(), 9 * 20000);
  EXPECT_NEAR(g.MedianSumSquaresEstimate(Interval::Full(32)), d.L2NormSquared(), 0.01);
  const Distribution cond = d.Restrict(Interval(0, 7));
  EXPECT_NEAR(g.MedianCondCollisionRate(Interval(0, 7)), cond.L2NormSquared(), 0.01);
}

TEST(SampleSetGroupTest, CondRateZeroWhenNoSamplesInInterval) {
  // Point mass: intervals away from the atom see nothing -> median 0.
  const AliasSampler sampler(Distribution::PointMass(16, 0));
  Rng rng(44);
  const SampleSetGroup g = SampleSetGroup::Draw(sampler, 5, 100, rng);
  EXPECT_DOUBLE_EQ(g.MedianCondCollisionRate(Interval(8, 15)), 0.0);
}

TEST(SampleSetTest, PrefixFormsMatchIntervalQueriesOnBothBackends) {
  const int64_t sparse_n = SampleSet::kDenseDomainLimit + 7;
  for (const int64_t n : {int64_t{10}, sparse_n}) {
    std::vector<int64_t> draws = FixedDraws();
    draws.push_back(n - 1);
    draws.push_back(n - 1);
    const SampleSet s = SampleSet::FromDraws(n, draws);
    EXPECT_EQ(s.CountBelow(0), 0);
    EXPECT_EQ(s.CollisionsBelow(0), 0u);
    EXPECT_EQ(s.CountBelow(n), s.m());
    for (int64_t lo : {int64_t{0}, int64_t{2}, int64_t{5}, n - 1}) {
      for (int64_t hi : {int64_t{5}, int64_t{9}, n - 1}) {
        if (hi < lo) continue;
        const Interval I(lo, hi);
        EXPECT_EQ(s.CountBelow(hi + 1) - s.CountBelow(lo), BruteCount(draws, I));
        EXPECT_EQ(s.CollisionsBelow(hi + 1) - s.CollisionsBelow(lo),
                  BruteCollisions(draws, n, I));
      }
    }
  }
}

TEST(SampleSetGroupTest, MedianCollisionsIsTheLowerMedian) {
  // Collisions on [0, 3] per set: 0, 3, 1, 6 -> lower median of 4 is 1.
  std::vector<SampleSet> sets;
  sets.push_back(SampleSet::FromDraws(8, {0, 1, 2, 3, 4, 4}));
  sets.push_back(SampleSet::FromDraws(8, {0, 0, 0, 3, 5, 6}));
  sets.push_back(SampleSet::FromDraws(8, {1, 1, 2, 5, 6, 7}));
  sets.push_back(SampleSet::FromDraws(8, {2, 2, 2, 2, 6, 7}));
  const SampleSetGroup g(std::move(sets));
  EXPECT_EQ(g.MedianCollisions(Interval(0, 3)), 1u);
  // Equal set sizes: the integer median over C(6, 2) is the ratio median.
  for (int64_t lo = 0; lo < 8; ++lo) {
    for (int64_t hi = lo; hi < 8; ++hi) {
      const Interval I(lo, hi);
      EXPECT_EQ(static_cast<double>(g.MedianCollisions(I)) / 15.0,
                g.MedianSumSquaresEstimate(I))
          << I.ToString();
    }
  }
}

TEST(SampleSetDeathTest, OutOfDomainDrawAborts) {
  EXPECT_DEATH(SampleSet::FromDraws(4, {0, 4}), "out of domain");
}

TEST(SampleSetDeathTest, GroupAboveMaxSetsAborts) {
  std::vector<SampleSet> sets(static_cast<size_t>(SampleSetGroup::kMaxSets) + 1,
                              SampleSet::FromDraws(4, {0, 1}));
  EXPECT_DEATH(SampleSetGroup(std::move(sets)), "at most kMaxSets");
}

}  // namespace
}  // namespace histk
