#include "core/greedy.h"

#include <string>

#include <gtest/gtest.h>

#include "baseline/voptimal_dp.h"
#include "dist/generators.h"

namespace histk {
namespace {

LearnOptions FastOptions(int64_t k, double eps) {
  LearnOptions opt;
  opt.k = k;
  opt.eps = eps;
  opt.strategy = CandidateStrategy::kSampleEndpoints;
  return opt;
}

TEST(GreedyTest, LearnsExactKHistogramToSmallError) {
  Rng rng(201);
  const HistogramSpec spec = MakeRandomKHistogram(64, 3, rng, 50.0);
  const AliasSampler sampler(spec.dist);
  const LearnResult res = LearnHistogram(sampler, FastOptions(3, 0.2), rng);
  const double err = res.tiling.L2SquaredErrorTo(spec.dist);
  // OPT = 0; the theorem allows +5 eps but in practice the learner should
  // be near-exact on a 3-piece histogram with full paper sample budget.
  EXPECT_LT(err, 0.01);
}

TEST(GreedyTest, ErrorWithinAdditiveBandOfOptimum) {
  Rng rng(202);
  const Distribution p = MakeGaussianMixture(96, {{0.3, 0.08, 1.0}, {0.7, 0.05, 0.5}});
  const AliasSampler sampler(p);
  const double eps = 0.2;
  const LearnResult res = LearnHistogram(sampler, FastOptions(4, eps), rng);
  const double opt = VOptimalSse(p, 4);
  const double err = res.tiling.L2SquaredErrorTo(p);
  // Note: the output is a priority histogram with k*ln(1/eps) intervals, so
  // it may legitimately BEAT the best k-piece tiling (bicriteria output);
  // the theorem only promises it does not lose more than 5*eps.
  EXPECT_LE(err, opt + 5 * eps + 1e-9);  // Theorem 1 band (loose)
  EXPECT_LE(err, opt + 0.05);            // practical band this workload meets
}

TEST(GreedyTest, AllIntervalsStrategyWorksOnSmallDomain) {
  Rng rng(203);
  const HistogramSpec spec = MakeRandomKHistogram(32, 2, rng, 20.0);
  const AliasSampler sampler(spec.dist);
  LearnOptions opt = FastOptions(2, 0.2);
  opt.strategy = CandidateStrategy::kAllIntervals;
  const LearnResult res = LearnHistogram(sampler, opt, rng);
  EXPECT_LT(res.tiling.L2SquaredErrorTo(spec.dist), 0.01);
  EXPECT_EQ(res.candidates_per_iter, 32 * 33 / 2);
}

TEST(GreedyTest, FastAndSlowStrategiesAgreeOnSharedSamples) {
  Rng rng(204);
  const HistogramSpec spec = MakeRandomKHistogram(48, 3, rng, 20.0);
  const AliasSampler sampler(spec.dist);
  const GreedyParams params = ComputeGreedyParams(48, 3, 0.2);
  const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, rng);

  LearnOptions slow = FastOptions(3, 0.2);
  slow.strategy = CandidateStrategy::kAllIntervals;
  const LearnResult rs = LearnHistogramWithEstimator(est, slow, params);
  const LearnResult rf =
      LearnHistogramWithEstimator(est, FastOptions(3, 0.2), params);
  const double es = rs.tiling.L2SquaredErrorTo(spec.dist);
  const double ef = rf.tiling.L2SquaredErrorTo(spec.dist);
  // Theorem 2: the restricted candidate set costs at most a few xi of
  // estimated error; on shared samples the realized gap must be tiny.
  EXPECT_NEAR(es, ef, 0.01);
}

TEST(GreedyTest, DeterministicGivenSeed) {
  const Distribution p = MakeZipf(40, 1.0);
  const AliasSampler sampler(p);
  Rng a(205), b(205);
  const LearnResult ra = LearnHistogram(sampler, FastOptions(3, 0.25), a);
  const LearnResult rb = LearnHistogram(sampler, FastOptions(3, 0.25), b);
  ASSERT_EQ(ra.tiling.k(), rb.tiling.k());
  for (int64_t i = 0; i < p.n(); ++i) {
    EXPECT_DOUBLE_EQ(ra.tiling.Value(i), rb.tiling.Value(i));
  }
}

TEST(GreedyTest, PriorityFlattenMatchesTiling) {
  Rng rng(206);
  const HistogramSpec spec = MakeRandomKHistogram(56, 4, rng, 10.0);
  const AliasSampler sampler(spec.dist);
  const LearnResult res = LearnHistogram(sampler, FastOptions(4, 0.2), rng);
  const TilingHistogram flat = res.priority.Flatten();
  for (int64_t i = 0; i < spec.dist.n(); ++i) {
    EXPECT_DOUBLE_EQ(flat.Value(i), res.tiling.Value(i)) << "i=" << i;
  }
}

TEST(GreedyTest, PriorityEntriesComeInRankGroups) {
  Rng rng(207);
  const AliasSampler sampler(MakeZipf(48, 1.2));
  const LearnResult res = LearnHistogram(sampler, FastOptions(3, 0.2), rng);
  // Each iteration adds 1-3 entries sharing one rank; ranks are the
  // iteration numbers, non-decreasing across the entry list.
  int64_t prev_rank = 0;
  for (const auto& e : res.priority.entries()) {
    EXPECT_GE(e.rank, prev_rank);
    prev_rank = e.rank;
  }
  EXPECT_LE(res.priority.entries().back().rank, res.params.iterations);
}

TEST(GreedyTest, IterationsOverrideShortensRun) {
  Rng rng(208);
  const AliasSampler sampler(MakeZipf(48, 1.2));
  LearnOptions opt = FastOptions(4, 0.2);
  opt.iterations_override = 1;
  const LearnResult res = LearnHistogram(sampler, opt, rng);
  EXPECT_LE(res.priority.entries().back().rank, 1);
}

TEST(GreedyTest, MoreIterationsNeverHurtMuch) {
  // The estimated cost the greedy minimizes is monotone in iterations.
  Rng rng(209);
  const Distribution p = MakeGaussianMixture(64, {{0.5, 0.1, 1.0}});
  const AliasSampler sampler(p);
  const GreedyParams params = ComputeGreedyParams(64, 4, 0.2);
  Rng draw_rng(210);
  const GreedyEstimator est = GreedyEstimator::Draw(sampler, params, draw_rng);
  double prev_cost = 1e9;
  for (int64_t iters = 1; iters <= 5; ++iters) {
    LearnOptions opt = FastOptions(4, 0.2);
    opt.iterations_override = iters;
    const LearnResult res = LearnHistogramWithEstimator(est, opt, params);
    EXPECT_LE(res.estimated_cost, prev_cost + 1e-9) << "iters=" << iters;
    prev_cost = res.estimated_cost;
  }
}

TEST(GreedyTest, KOneLearnsUniformAsOnePiece) {
  Rng rng(211);
  const AliasSampler sampler(Distribution::Uniform(64));
  const LearnResult res = LearnHistogram(sampler, FastOptions(1, 0.2), rng);
  EXPECT_LT(res.tiling.L2SquaredErrorTo(Distribution::Uniform(64)), 1e-3);
}

TEST(GreedyTest, PointMassCapturedByNarrowPiece) {
  Rng rng(212);
  const AliasSampler sampler(Distribution::PointMass(64, 31));
  const LearnResult res = LearnHistogram(sampler, FastOptions(2, 0.2), rng);
  // The learner must place nearly all mass at element 31.
  EXPECT_GT(res.tiling.Value(31), 0.5);
  EXPECT_LT(res.tiling.L2SquaredErrorTo(Distribution::PointMass(64, 31)), 0.05);
}

TEST(GreedyTest, MaxCandidatesCapThinsEndpoints) {
  Rng rng(213);
  const AliasSampler sampler(Distribution::Uniform(256));
  LearnOptions opt = FastOptions(2, 0.3);
  opt.max_candidates = 50;
  const LearnResult res = LearnHistogram(sampler, opt, rng);
  EXPECT_LE(res.candidates_per_iter, 50);
}

TEST(GreedyTest, MaxCandidatesBelowThreeIsRejected) {
  // 1 and 2 derive an endpoint limit of 1, which cannot thin: the cap
  // would silently turn off instead of bounding the scan.
  LearnOptions opt = FastOptions(2, 0.3);
  for (int64_t cap : {int64_t{-1}, int64_t{1}, int64_t{2}}) {
    opt.max_candidates = cap;
    const Status s = ValidateLearnOptions(256, opt);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << cap;
    EXPECT_NE(s.message().find("0 (off) or >= 3"), std::string::npos) << cap;
  }
  for (int64_t cap : {int64_t{0}, int64_t{3}}) {
    opt.max_candidates = cap;
    EXPECT_TRUE(ValidateLearnOptions(256, opt).ok()) << cap;
  }

  // The smallest accepted cap really thins: d(d+1)/2 <= 3 -> d = 2.
  Rng rng(215);
  const AliasSampler sampler(Distribution::Uniform(64));
  opt.max_candidates = 3;
  const LearnResult res = LearnHistogram(sampler, opt, rng);
  EXPECT_EQ(res.endpoints_after_thinning, 2);
  EXPECT_EQ(res.candidates_per_iter, 3);
}

TEST(GreedyTest, SetCountOverrideIsBoundedByTheGroupCap) {
  // The median combiners select in a fixed buffer of kMaxSets entries, so a
  // larger r is refused up front instead of aborting in SampleSetGroup.
  LearnOptions opt = FastOptions(2, 0.3);
  opt.r_override = SampleSetGroup::kMaxSets;
  EXPECT_TRUE(ValidateLearnOptions(256, opt).ok());
  opt.r_override = SampleSetGroup::kMaxSets + 1;
  const Status s = ValidateLearnOptions(256, opt);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("[0, 2048]"), std::string::npos) << s.message();
}

TEST(GreedyTest, AllIntervalsDomainIsBoundedByMaxCandidates) {
  LearnOptions opt = FastOptions(2, 0.3);
  opt.strategy = CandidateStrategy::kAllIntervals;
  EXPECT_TRUE(ValidateLearnOptions(1999, opt).ok());  // 1999000 intervals
  const Status s = ValidateLearnOptions(2000, opt);   // 2001000 > 2000000
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("2001000"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("max_candidates = 2000000"), std::string::npos)
      << s.message();
  opt.max_candidates = 0;
  EXPECT_TRUE(ValidateLearnOptions(2000, opt).ok());
  // Saturates instead of overflowing on huge domains.
  opt.max_candidates = 2'000'000;
  EXPECT_EQ(ValidateLearnOptions(int64_t{1} << 40, opt).code(),
            StatusCode::kInvalidArgument);
}

TEST(GreedyTest, ReportsSampleAccounting) {
  Rng rng(214);
  const AliasSampler sampler(Distribution::Uniform(32));
  const LearnResult res = LearnHistogram(sampler, FastOptions(2, 0.3), rng);
  EXPECT_EQ(res.total_samples, res.params.l + res.params.r * res.params.m);
  EXPECT_GT(res.candidates_per_iter, 0);
}

}  // namespace
}  // namespace histk
