#include "dist/dataset.h"

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "dist/generators.h"

namespace histk {
namespace {

TEST(DatasetTest, DrawsMatchItemFrequencies) {
  // D = {0 x3, 5 x1}: p(0) = 0.75, p(5) = 0.25.
  const DatasetSampler s(8, {0, 0, 0, 5});
  Rng rng(1301);
  int64_t zeros = 0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) zeros += s.Draw(rng) == 0;
  EXPECT_NEAR(static_cast<double>(zeros) / trials, 0.75, 0.01);
}

TEST(DatasetTest, EmpiricalDistMatchesCounts) {
  const DatasetSampler s(4, {1, 1, 2, 3, 3, 3});
  const Distribution d = s.EmpiricalDist();
  EXPECT_DOUBLE_EQ(d.p(0), 0.0);
  EXPECT_DOUBLE_EQ(d.p(1), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(d.p(2), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(d.p(3), 3.0 / 6.0);
  EXPECT_EQ(s.size(), 6);
}

TEST(DatasetTest, LearnerRunsOnDatasetOracle) {
  // Materialize a data set from a 3-histogram, learn from random elements.
  Rng gen(1302);
  const HistogramSpec spec = MakeRandomKHistogram(64, 3, gen, 20.0);
  const AliasSampler source(spec.dist);
  std::vector<int64_t> items = source.DrawMany(300000, gen);
  const DatasetSampler dataset(64, std::move(items));

  LearnOptions opt;
  opt.k = 3;
  opt.eps = 0.2;
  Rng rng(1303);
  const LearnResult res = LearnHistogram(dataset, opt, rng);
  // Learned histogram approximates the data set's empirical distribution.
  EXPECT_LT(res.tiling.L2SquaredErrorTo(dataset.EmpiricalDist()), 0.01);
}

TEST(DatasetTest, DomainIsDeclaredOrMaxItemPlusOne) {
  EXPECT_EQ(DatasetDomain(16, {0, 3, 7}), 16);
  EXPECT_EQ(DatasetDomain(0, {0, 3, 7}), 8);
  EXPECT_EQ(DatasetDomain(-1, {2}), 3);
}

TEST(DatasetTest, TruthDistIsCappedAtMaxTruthDomain) {
  const DatasetSampler small(8, {0, 0, 0, 5});
  const Result<Distribution> truth = small.TruthDist();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_DOUBLE_EQ(truth->p(0), 0.75);

  const DatasetSampler huge(DatasetSampler::kMaxTruthDomain + 1, {0, 1});
  const Result<Distribution> refused = huge.TruthDist();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetDeathTest, RejectsEmptyAndOutOfDomain) {
  EXPECT_DEATH(DatasetSampler(4, {}), "non-empty");
  EXPECT_DEATH(DatasetSampler(4, {0, 4}), "out of domain");
}

}  // namespace
}  // namespace histk
