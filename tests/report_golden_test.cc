// Byte goldens for the text every learned synopsis reaches clients as: a
// hand-built Report that fills every JSON block, the histkd envelope that
// wraps it, and the histk-tiling-histogram v1 text format. Any change to
// string escaping or number formatting shows up here as a diff; on a
// mismatch the actual bytes are written to the gtest temp dir as
// <name>.actual for inspection.
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/request.h"
#include "dist/io.h"
#include "engine/engine.h"
#include "histogram/priority.h"
#include "histogram/tiling.h"

namespace histk {
namespace {

// Every character class the JSON escaper distinguishes: quote, backslash,
// the two named escapes, and a raw control byte.
const char kEscapes[] = "q\"b\\n\nt\tc\x01z";

std::string DataPath(const std::string& name) {
  return std::string(HISTK_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string golden = ReadFile(DataPath(name));
  EXPECT_EQ(actual, golden) << name;
  if (actual != golden) {
    std::ofstream(testing::TempDir() + "/" + name + ".actual") << actual;
  }
}

// Values that need all 17 significant digits to round-trip.
TilingHistogram Tiling(int64_t n, const std::vector<int64_t>& right_ends,
                       double scale) {
  std::vector<double> values;
  for (size_t j = 0; j < right_ends.size(); ++j) {
    values.push_back(scale / static_cast<double>(3 + 4 * j));
  }
  return TilingHistogram::FromRightEnds(n, right_ends, std::move(values));
}

Report FullReport() {
  Report report;
  report.task = "estimate";
  report.outcome = TaskOutcome::kOk;
  report.status = StatusCode::kOk;
  report.degraded = false;
  report.retries = 2;

  ReportTelemetry& t = report.telemetry;
  t.budget = 1000000;
  t.samples_drawn = 123456;
  t.wall_ms = 12.345678901234567;
  t.candidates_per_iter = 78;
  t.endpoints_before_thinning = 40;
  t.endpoints_after_thinning = 32;
  t.phases = {{"learn-main", 100000}, {kEscapes, 23456}};

  PriorityHistogram priority(16);
  priority.Add(Interval(0, 15), 1.0 / 16.0);
  priority.Add(Interval(4, 9), 0.1);
  GreedyParams params;
  params.l = 100;
  params.r = 7;
  params.m = 300;
  params.iterations = 5;
  report.learn = LearnResult{priority, Tiling(16, {3, 9, 15}, 1.0), params,
                             2200,     78,   1.0 / 3.0,
                             40,       32};
  report.reduced = Tiling(16, {9, 15}, 0.5);

  TestOutcome test;
  test.accepted = true;
  test.params.r = 9;
  test.params.m = 250;
  test.total_samples = 2250;
  test.flat_partition = {Interval(0, 3), Interval(4, 15)};
  report.test = test;

  report.compare = {{"paper", 3, 2.0 / 3.0e-5, 2200},
                    {kEscapes, 4, std::numeric_limits<double>::quiet_NaN(), 0}};

  PropertyTestOutcome ptest;
  ptest.accepted = false;
  ptest.params.learn = params;
  ptest.params.verify_r = 11;
  ptest.params.verify_m = 400;
  ptest.total_samples = 6600;
  ptest.refinement_parts = 6;
  ptest.fitted_pieces = 3;
  ptest.fit_stat = 1.0 / 7.0;
  ptest.fit_threshold = std::numeric_limits<double>::infinity();
  ptest.exception_parts = 1;
  ptest.exception_mass = 0.01;
  ptest.exception_mass_threshold = 0.05;
  ptest.collision_stat = -2.5e-7;
  ptest.collision_threshold = 1e300;
  ptest.candidate_l1 = 0.125;
  ptest.candidate = Tiling(16, {7, 15}, 0.25);
  report.property_test = ptest;

  ClosenessOutcome close;
  close.accepted = true;
  close.params.verify_r = 5;
  close.params.verify_m = 120;
  close.total_samples = 9000;
  close.refinement_parts = 4;
  close.statistic = 0.30000000000000004;
  close.threshold = 1.5;
  close.candidate_p = Tiling(16, {1, 15}, 2.0);
  close.candidate_q = Tiling(16, {5, 11, 15}, 3.0);
  report.closeness = close;

  EstimateAnswers answers;
  answers.quantiles = {{0.5, 7}, {0.99, 15}};
  EstimateAnswers::SelectivityAnswer with_truth;
  with_truth.range = Interval(2, 5);
  with_truth.estimate = 0.2;
  with_truth.truth = 0.19999999999999998;
  EstimateAnswers::SelectivityAnswer without_truth;
  without_truth.range = Interval(0, 15);
  without_truth.estimate = 1.0;
  answers.selectivity = {with_truth, without_truth};
  report.estimate = answers;
  return report;
}

std::string Envelope(const Report& report) {
  api::ResponseEnvelope env;
  env.id = kEscapes;
  env.has_id = true;
  env.kind = "estimate";
  env.status = report.status;
  env.retries = report.retries;
  env.cache = api::CacheState::kMiss;
  env.fingerprint = "00000000deadbeef";
  env.serve_ms = 0.1 + 0.2;
  env.report = &report;
  return api::WriteResponseJson(env);
}

TEST(ReportGoldenTest, EnvelopeWithFullReport) {
  const Report report = FullReport();
  ExpectMatchesGolden(Envelope(report), "response_full_report.golden");
}

TEST(ReportGoldenTest, FullReportJson) {
  // The envelope embeds the report object verbatim as its last member, so
  // the report's own bytes are the envelope's tail.
  const Report report = FullReport();
  const std::string line = Envelope(report);
  const std::string key = ", \"report\": ";
  const size_t at = line.find(key);
  ASSERT_NE(at, std::string::npos);
  const size_t start = at + key.size();
  ASSERT_GE(line.size(), start + 2);
  ASSERT_EQ(line.substr(line.size() - 2), "}\n");
  ExpectMatchesGolden(line.substr(start, line.size() - 2 - start) + "\n",
                      "report_full.golden");
}

TEST(ReportGoldenTest, TilingHistogramText) {
  std::ostringstream out;
  WriteTilingHistogram(out, Tiling(20, {0, 6, 13, 19}, 1e-3));
  ExpectMatchesGolden(out.str(), "tiling_histogram.golden");
}

}  // namespace
}  // namespace histk
