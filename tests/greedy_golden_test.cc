// Byte golden for Algorithm 1's output. Each case draws a seeded
// GreedyEstimator and runs LearnHistogramWithEstimator; the priority
// entries, the flattened tiling, estimated_cost and the candidate/endpoint
// accounting are written as text, with every double through the
// round-trip formatter, so any change to the greedy scan that moves a
// tiling, a value or a single bit of estimated_cost shows up here as a
// diff. On a mismatch the actual bytes are written to the gtest temp dir
// as greedy_learn.golden.actual.
//
// The grid covers both candidate strategies, the +-1 endpoint neighbours
// on and off, max_candidates thinning, r = 1 and r = 4 collision sets, a
// sparse-backend domain (n > SampleSet::kDenseDomainLimit), and a low
// sample_scale whose endpoint list T' leaves gaps in the domain.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "sample/sample_set.h"
#include "util/json_writer.h"

namespace histk {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream f(std::string(HISTK_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(f.good()) << "cannot open " << name;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

struct GoldenCase {
  std::string name;
  int64_t n = 0;
  int64_t k = 1;
  double eps = 0.3;
  double sample_scale = 0.25;
  CandidateStrategy strategy = CandidateStrategy::kSampleEndpoints;
  bool neighbors = true;
  int64_t max_candidates = 2'000'000;
  int64_t r_override = 0;
  uint64_t seed = 1;
};

LearnOptions OptionsFor(const GoldenCase& c) {
  LearnOptions options;
  options.k = c.k;
  options.eps = c.eps;
  options.sample_scale = c.sample_scale;
  options.strategy = c.strategy;
  options.include_endpoint_neighbors = c.neighbors;
  options.max_candidates = c.max_candidates;
  options.r_override = c.r_override;
  return options;
}

/// A seeded random k-histogram over [0, n) as the oracle.
GreedyEstimator DenseEstimator(const GoldenCase& c, const GreedyParams& params) {
  Rng rng(c.seed);
  const HistogramSpec spec = MakeRandomKHistogram(c.n, c.k, rng, 20.0);
  const AliasSampler sampler(spec.dist);
  return GreedyEstimator::Draw(sampler, params, rng);
}

/// Sparse-backend domain: draws from a 64-element k-histogram spread over
/// [0, n) at a fixed stride, built through FromDraws so no O(n) sampler
/// table is needed.
GreedyEstimator SparseEstimator(const GoldenCase& c, const GreedyParams& params) {
  constexpr int64_t kSupport = 64;
  const int64_t stride = (c.n - 1) / kSupport;
  Rng rng(c.seed);
  const HistogramSpec spec = MakeRandomKHistogram(kSupport, c.k, rng, 20.0);
  const AliasSampler sampler(spec.dist);
  auto draw = [&](int64_t m) {
    std::vector<int64_t> draws = sampler.DrawMany(m, rng);
    for (int64_t& v : draws) v = 3 + v * stride;
    return SampleSet::FromDraws(c.n, std::move(draws));
  };
  SampleSet main = draw(params.l);
  std::vector<SampleSet> sets;
  for (int64_t j = 0; j < params.r; ++j) sets.push_back(draw(params.m));
  return GreedyEstimator(std::move(main), SampleSetGroup(std::move(sets)));
}

void AppendCase(std::string& out, const GoldenCase& c) {
  const LearnOptions options = OptionsFor(c);
  const GreedyParams params = ComputeLearnParams(c.n, options);
  const GreedyEstimator estimator = c.n > SampleSet::kDenseDomainLimit
                                        ? SparseEstimator(c, params)
                                        : DenseEstimator(c, params);
  const LearnResult result = LearnHistogramWithEstimator(estimator, options, params);

  out += "case " + c.name + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " strategy=" +
         CandidateStrategyName(c.strategy) + "\n";
  out += "candidates_per_iter " + std::to_string(result.candidates_per_iter) + "\n";
  out += "endpoints " + std::to_string(result.endpoints_before_thinning) + " " +
         std::to_string(result.endpoints_after_thinning) + "\n";
  out += "estimated_cost ";
  AppendRoundTripDouble(out, result.estimated_cost);
  out += "\n";
  for (const PriorityEntry& e : result.priority.entries()) {
    out += "priority " + std::to_string(e.interval.lo) + " " +
           std::to_string(e.interval.hi) + " ";
    AppendRoundTripDouble(out, e.value);
    out += " " + std::to_string(e.rank) + "\n";
  }
  for (int64_t j = 0; j < result.tiling.k(); ++j) {
    const Interval& piece = result.tiling.pieces()[static_cast<size_t>(j)];
    out += "tiling " + std::to_string(piece.lo) + " " + std::to_string(piece.hi) + " ";
    AppendRoundTripDouble(out, result.tiling.values()[static_cast<size_t>(j)]);
    out += "\n";
  }
}

std::vector<GoldenCase> Grid() {
  std::vector<GoldenCase> grid;
  GoldenCase base;
  base.n = 128;
  base.k = 4;
  base.seed = 11;

  GoldenCase c = base;
  c.name = "endpoints";
  grid.push_back(c);

  c = base;
  c.name = "endpoints-no-neighbors";
  c.neighbors = false;
  grid.push_back(c);

  c = base;
  c.name = "all-intervals";
  c.n = 48;
  c.k = 3;
  c.strategy = CandidateStrategy::kAllIntervals;
  c.seed = 12;
  grid.push_back(c);

  c = base;
  c.name = "all-intervals-k2";
  c.n = 40;
  c.k = 2;
  c.strategy = CandidateStrategy::kAllIntervals;
  c.seed = 13;
  grid.push_back(c);

  c = base;
  c.name = "thinned";
  c.n = 256;
  c.max_candidates = 200;  // endpoint limit d(d+1)/2 <= 200 -> d = 19
  c.seed = 14;
  grid.push_back(c);

  c = base;
  c.name = "r1";
  c.r_override = 1;
  c.seed = 15;
  grid.push_back(c);

  c = base;
  c.name = "r4";
  c.r_override = 4;
  c.seed = 16;
  grid.push_back(c);

  c = base;
  c.name = "sparse-domain";
  c.n = SampleSet::kDenseDomainLimit * 2 + 5;
  c.k = 5;
  c.seed = 17;
  grid.push_back(c);

  c = base;
  c.name = "gappy";
  c.n = 512;
  c.k = 6;
  c.eps = 0.35;
  c.sample_scale = 0.01;
  c.seed = 18;
  grid.push_back(c);

  c = base;
  c.name = "gappy-no-neighbors";
  c.n = 512;
  c.k = 6;
  c.eps = 0.35;
  c.sample_scale = 0.01;
  c.neighbors = false;
  c.seed = 19;
  grid.push_back(c);
  return grid;
}

TEST(GreedyGoldenTest, LearnOutputMatchesGolden) {
  std::string actual = "histk-greedy-golden v1\n";
  for (const GoldenCase& c : Grid()) AppendCase(actual, c);
  const std::string name = "greedy_learn.golden";
  const std::string golden = ReadGolden(name);
  EXPECT_EQ(actual, golden);
  if (actual != golden) {
    std::ofstream(testing::TempDir() + "/" + name + ".actual") << actual;
  }
}

// The gappy cases exist to exercise an endpoint list with holes: guard
// that the grid still produces one (T' far smaller than the domain).
TEST(GreedyGoldenTest, GappyCaseLeavesHolesInEndpointList) {
  for (const GoldenCase& c : Grid()) {
    if (c.name.rfind("gappy", 0) != 0) continue;
    const LearnOptions options = OptionsFor(c);
    const GreedyParams params = ComputeLearnParams(c.n, options);
    const LearnResult result =
        LearnHistogramWithEstimator(DenseEstimator(c, params), options, params);
    EXPECT_LT(result.endpoints_after_thinning, c.n / 2) << c.name;
  }
}

}  // namespace
}  // namespace histk
