// Engine task coverage beyond parity: compare/estimate payloads, the
// telemetry block (thinning events, phases), spec validation statuses, and
// the JSON serialization of all of it.
#include "engine/engine.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "dist/generators.h"
#include "dist/sampler.h"
#include "util/rng.h"

namespace histk {
namespace {

std::string ReportJson(const Report& report) {
  std::string json;
  AppendReportJson(json, report);
  return json;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Distribution TruthDist() {
  Rng rng(99);
  return MakeRandomKHistogram(/*n=*/128, /*k=*/5, rng, 10.0).dist;
}

TEST(EngineReportTest, CompareRanksLearnerAgainstBaselines) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  CompareSpec spec;
  spec.seed = 3;
  spec.k = 5;
  spec.eps = 0.25;
  spec.sample_scale = 0.05;
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  const Report& report = *run;
  EXPECT_EQ(report.outcome, TaskOutcome::kOk);
  EXPECT_EQ(report.task, "compare");

  double paper_sse = -1.0;
  double voptimal_sse = -1.0;
  for (const CompareRow& row : report.compare) {
    EXPECT_GE(row.sse, 0.0);
    EXPECT_TRUE(std::isfinite(row.sse));
    if (row.method == "paper") {
      paper_sse = row.sse;
      EXPECT_EQ(row.pieces, 5);
      EXPECT_GT(row.samples, 0);
    }
    if (row.method == "v-optimal") {
      voptimal_sse = row.sse;
      EXPECT_EQ(row.samples, 0);  // reads the pmf, draws nothing
    }
  }
  ASSERT_GE(paper_sse, 0.0) << "paper row missing";
  ASSERT_GE(voptimal_sse, 0.0) << "v-optimal row missing (n is under the DP gate)";
  // The exact DP is the optimum over k-piece tilings; the learner's k-piece
  // reduction cannot beat it (up to fp noise).
  EXPECT_LE(voptimal_sse, paper_sse + 1e-12);

  // Baseline draws are metered like everything else.
  ASSERT_EQ(report.telemetry.phases.size(), 3u);
  EXPECT_EQ(report.telemetry.phases[2].phase, "baselines");
  EXPECT_GT(report.telemetry.phases[2].samples, 0);

  const std::string json = ReportJson(report);
  EXPECT_TRUE(Contains(json, "\"task\": \"compare\"")) << json;
  EXPECT_TRUE(Contains(json, "\"method\": \"equi-depth\"")) << json;
}

TEST(EngineReportTest, CompareWithoutTruthIsInvalid) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);  // no session truth
  const Result<Report> run = engine.Run(CompareSpec{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineReportTest, EstimateAnswersQuantilesAndSelectivity) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  EstimateSpec spec;
  spec.seed = 11;
  spec.k = 5;
  spec.eps = 0.2;
  spec.sample_scale = 0.2;
  spec.quantile_levels = {0.1, 0.5, 0.9};
  spec.ranges = {Interval(0, 31), Interval(32, 95), Interval(0, 127)};
  const Result<Report> run = engine.Run(spec);
  ASSERT_TRUE(run.ok());
  const Report& report = *run;
  ASSERT_TRUE(report.estimate.has_value());

  // Quantiles are monotone in the level.
  const auto& quantiles = report.estimate->quantiles;
  ASSERT_EQ(quantiles.size(), 3u);
  EXPECT_LE(quantiles[0].value, quantiles[1].value);
  EXPECT_LE(quantiles[1].value, quantiles[2].value);

  const auto& selectivity = report.estimate->selectivity;
  ASSERT_EQ(selectivity.size(), 3u);
  for (const auto& sel : selectivity) {
    ASSERT_TRUE(sel.truth.has_value());
    EXPECT_NEAR(sel.estimate, *sel.truth, 0.2);
  }
  // The full-domain range carries (nearly) all the mass on both sides.
  EXPECT_NEAR(selectivity[2].estimate, 1.0, 0.05);
  EXPECT_NEAR(*selectivity[2].truth, 1.0, 1e-9);

  const std::string json = ReportJson(report);
  EXPECT_TRUE(Contains(json, "\"estimate\": {\"quantiles\":")) << json;
}

TEST(EngineReportTest, EstimateWithoutTruthOmitsTruthColumn) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);

  EstimateSpec spec;
  spec.k = 5;
  spec.eps = 0.2;
  spec.sample_scale = 0.1;
  spec.ranges = {Interval(0, 63)};
  const Report report = *engine.Run(spec);
  ASSERT_TRUE(report.estimate.has_value());
  EXPECT_FALSE(report.estimate->selectivity[0].truth.has_value());
  EXPECT_TRUE(Contains(ReportJson(report), "\"truth\": null"));
}

TEST(EngineReportTest, ThinningEventIsSurfacedInTelemetry) {
  // Zipf has full support, so the endpoint list is large; a tiny
  // max_candidates forces the (previously silent) thinning.
  const Distribution d = MakeZipf(512, 1.1);
  const AliasSampler sampler(d);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.seed = 21;
  spec.options.k = 4;
  spec.options.eps = 0.25;
  spec.options.sample_scale = 0.05;
  spec.options.max_candidates = 55;  // endpoint limit d(d+1)/2 <= 55 -> d = 10
  const Report report = *engine.Run(spec);
  ASSERT_EQ(report.outcome, TaskOutcome::kOk);
  EXPECT_GT(report.telemetry.endpoints_before_thinning, 10);
  EXPECT_LE(report.telemetry.endpoints_after_thinning, 10);
  EXPECT_LT(report.telemetry.endpoints_after_thinning,
            report.telemetry.endpoints_before_thinning);

  // Without the cap, the counts match (no thinning).
  spec.options.max_candidates = 0;
  const Report uncapped = *engine.Run(spec);
  EXPECT_EQ(uncapped.telemetry.endpoints_before_thinning,
            uncapped.telemetry.endpoints_after_thinning);
}

TEST(EngineReportTest, InvalidSpecsReturnStatusesNotAborts) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  LearnSpec bad_k;
  bad_k.options.k = 0;
  EXPECT_EQ(engine.Run(bad_k).status().code(), StatusCode::kInvalidArgument);

  LearnSpec bad_eps;
  bad_eps.options.eps = 1.5;
  EXPECT_EQ(engine.Run(bad_eps).status().code(), StatusCode::kInvalidArgument);

  LearnSpec bad_threads;
  bad_threads.draw_threads = -2;
  EXPECT_EQ(engine.Run(bad_threads).status().code(), StatusCode::kInvalidArgument);

  TestSpec bad_scale;
  bad_scale.config.sample_scale = 0.0;
  EXPECT_EQ(engine.Run(bad_scale).status().code(), StatusCode::kInvalidArgument);

  EstimateSpec bad_level;
  bad_level.quantile_levels = {1.5};
  EXPECT_EQ(engine.Run(bad_level).status().code(), StatusCode::kInvalidArgument);

  EstimateSpec bad_range;
  bad_range.ranges = {Interval(100, 500)};  // beyond n = 128
  EXPECT_EQ(engine.Run(bad_range).status().code(), StatusCode::kInvalidArgument);

  // In-range knobs whose derived sample counts overflow to inf / past
  // int64 must be rejected here, not abort inside the formula calculators.
  TestSpec tiny_eps;
  tiny_eps.config.eps = 1e-80;  // eps^-5 -> inf
  EXPECT_EQ(engine.Run(tiny_eps).status().code(), StatusCode::kInvalidArgument);

  TestSpec tiny_eps_l2 = tiny_eps;
  tiny_eps_l2.config.norm = Norm::kL2;
  EXPECT_EQ(engine.Run(tiny_eps_l2).status().code(), StatusCode::kInvalidArgument);

  LearnSpec huge_scale;
  huge_scale.options.sample_scale = 1e308;  // l -> inf
  EXPECT_EQ(engine.Run(huge_scale).status().code(), StatusCode::kInvalidArgument);

  LearnSpec big_count;
  big_count.options.eps = 1e-8;  // finite but far past int64 samples
  EXPECT_EQ(engine.Run(big_count).status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineReportTest, FullEnumerationPastMaxCandidatesIsRejectedUpFront) {
  // n(n+1)/2 = 2001000 intervals at n = 2000 exceed the default cap of 2M:
  // learn and compare reject the spec before drawing anything, naming both
  // numbers. Compare validates the strategy it runs, not just its knobs.
  const Distribution truth = Distribution::Uniform(2000);
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  LearnSpec learn;
  learn.options.k = 2;
  learn.options.eps = 0.3;
  learn.options.strategy = CandidateStrategy::kAllIntervals;
  const Result<Report> learn_run = engine.Run(learn);
  ASSERT_EQ(learn_run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(learn_run.status().message(), "2001000"));
  EXPECT_TRUE(Contains(learn_run.status().message(), "2000000"));

  CompareSpec compare;
  compare.k = 2;
  compare.eps = 0.3;
  compare.strategy = CandidateStrategy::kAllIntervals;
  const Result<Report> compare_run = engine.Run(compare);
  ASSERT_EQ(compare_run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(compare_run.status().message(), "max_candidates"));

  // The cap is the bound: lifting it (0 = off) makes the spec valid again.
  learn.options.max_candidates = 0;
  EXPECT_TRUE(ValidateLearnOptions(sampler.n(), learn.options).ok());
}

TEST(EngineReportTest, CompareBudgetExhaustionKeepsTelemetryOnly) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler, truth);

  CompareSpec spec;
  spec.seed = 3;
  spec.k = 5;
  spec.eps = 0.25;
  spec.sample_scale = 0.05;
  const Report full = *engine.Run(spec);
  ASSERT_EQ(full.outcome, TaskOutcome::kOk);

  // Enough budget to learn, not enough for the baselines sample: the rows
  // pushed before exhaustion must not leak into the report.
  CompareSpec capped = spec;
  capped.budget = full.learn->total_samples + 1;
  const Report partial = *engine.Run(capped);
  EXPECT_EQ(partial.outcome, TaskOutcome::kBudgetExhausted);
  EXPECT_TRUE(partial.compare.empty());
  EXPECT_FALSE(partial.learn.has_value());
  EXPECT_LE(partial.telemetry.samples_drawn, capped.budget);
}

TEST(EngineReportTest, JsonCarriesOutcomeAndPhases) {
  const Distribution truth = TruthDist();
  const AliasSampler sampler(truth);
  const Engine engine(sampler);

  LearnSpec spec;
  spec.options.k = 4;
  spec.options.eps = 0.25;
  spec.options.sample_scale = 0.05;
  spec.budget = 10;  // exhausts immediately
  const std::string json = ReportJson(*engine.Run(spec));
  EXPECT_TRUE(Contains(json, "\"histk_report\": 1")) << json;
  EXPECT_TRUE(Contains(json, "\"outcome\": \"budget-exhausted\"")) << json;
  EXPECT_TRUE(Contains(json, "\"budget\": 10")) << json;
  EXPECT_TRUE(Contains(json, "\"phase\": \"learn-main\"")) << json;
  EXPECT_FALSE(Contains(json, "\"learn\": {")) << json;
}

}  // namespace
}  // namespace histk
