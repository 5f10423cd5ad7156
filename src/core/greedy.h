// Algorithm 1: greedy construction of a near-optimal priority k-histogram,
// plus the Theorem 2 variant that restricts candidate intervals to
// endpoints adjacent to observed samples.
//
// Guarantee (Theorems 1/2): against the best tiling k-histogram H*,
//   ||p - H||_2^2 <= ||p - H*||_2^2 + 5*eps   (full candidate enumeration)
//   ||p - H||_2^2 <= ||p - H*||_2^2 + 8*eps   (sample-endpoint candidates)
// using l + r*m = O~((k/eps)^2 ln n) samples.
//
// The algorithm maintains the flattening of its priority histogram as a
// tiling whose pieces carry the estimated cost z_I - y_I^2/|I| (the
// estimated SSE of bucketing I at its estimated mean). Each iteration adds
// the interval J minimizing the total estimated cost of the new tiling;
// the three paper entries (J, y_J), (I_L, y_IL), (I_R, y_IR) are recorded
// in the output priority histogram.
//
// Memoized candidate scan. Candidates are all pairs ai <= bi of an
// ascending endpoint list: T' under kSampleEndpoints, every point of [0, n)
// under kAllIntervals, so one loop serves both strategies. PieceCost(J) is
// a pure function of J and the drawn samples, so a learn computes it once
// per candidate into a triangular table in scan order, instead of once per
// candidate per iteration. Each iteration then prices, once per endpoint,
// the piece containing it and that piece's left remnant (a function of
// J.lo only) and right remnant (J.hi only). A candidate costs one table
// read, a loop over the <= 3*iterations + 1 pieces it overlaps, and two
// vector reads.
//
// The table (GreedyEstimator::PieceCostTable) is built from an
// endpoint-indexed layout rather than one PieceCost call per pair. For
// each endpoint e it gathers the main set's prefix counts below e and
// below e + 1, and each collision set's prefix collision counts at the same
// two points, into flat [endpoint][set] arrays (2*d*r u64, ~50 KB at
// d = 245, r = 13). For each ai it walks bi upward, keeping the r collision
// counts of [e_ai, e_bi] sorted with one insertion pass per step. The
// counts only grow with bi, so the order rarely changes and the branches
// predict. z_J is the lower median, read as an integer at index (r-1)/2
// and divided once by C(m, 2). That needs every collision set to hold the
// same m, as the paper draws them; GreedyEstimator checks it.
//
// Memory: 8 B x candidates_per_iter, at most ~16 MB under the default
// max_candidates of 2M (ValidateLearnOptions bounds kAllIntervals' n(n+1)/2
// by the same cap), plus the 2*d*(r+1) prefix counts while the table is
// built, all freed when the learn returns.
//
// Results are bit-identical to pricing each candidate from scratch. The
// table holds the very PieceCost values: PieceCost takes the same integer
// lower median, and the median of r ratios coll_j / C(m, 2) is that median
// divided by C(m, 2), since a selection commutes with the correctly
// rounded, order-preserving x -> x / C(m, 2). Each c_J is summed in the
// same order (PieceCost(J), minus each overlapped piece left to right,
// plus the left and right remnants; an empty remnant adds -0.0, which
// leaves every double unchanged). The strict `<` scan keeps the first
// minimum. tests/candidate_table_test.cc checks the table entry by entry,
// and tests/greedy_golden_test.cc pins whole learns.
#ifndef HISTK_CORE_GREEDY_H_
#define HISTK_CORE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "dist/sampler.h"
#include "histogram/priority.h"
#include "histogram/tiling.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "util/rng.h"
#include "util/status.h"

namespace histk {

/// How candidate intervals J are enumerated each greedy step.
enum class CandidateStrategy {
  /// Algorithm 1: all O(n^2) intervals. Exact but time Omega(n^2).
  kAllIntervals,
  /// Theorem 2: only intervals whose endpoints are samples or sample
  /// neighbours (T' = {s-1, s, s+1}); time independent of n^2.
  kSampleEndpoints,
};

const char* CandidateStrategyName(CandidateStrategy s);

/// Learner configuration.
struct LearnOptions {
  int64_t k = 1;
  double eps = 0.1;
  CandidateStrategy strategy = CandidateStrategy::kSampleEndpoints;
  /// Multiplies the paper's sample-count formulas (l and m); 1.0 = paper
  /// constants. Experiments document the scale they run at.
  double sample_scale = 1.0;
  /// Safety cap on candidate-set size: kSampleEndpoints thins the endpoint
  /// list evenly if |T'|(|T'|+1)/2 would exceed it; for kAllIntervals,
  /// ValidateLearnOptions rejects n(n+1)/2 above it. 0 = off, else >= 3.
  int64_t max_candidates = 2'000'000;
  /// Theorem 2 includes the +-1 neighbours of each sample in the endpoint
  /// set T'. Setting this false drops them (ablation E8 measures the cost).
  bool include_endpoint_neighbors = true;
  /// Override the number of greedy iterations (0 = paper's k*ln(1/eps)).
  int64_t iterations_override = 0;
  /// Override the number of collision sample sets r (0 = paper formula).
  int64_t r_override = 0;
};

/// Output of the learner.
struct LearnResult {
  PriorityHistogram priority;      ///< the paper's output representation
  TilingHistogram tiling;          ///< its flattening (what evaluations use)
  GreedyParams params;             ///< sample sizes actually used
  int64_t total_samples = 0;       ///< samples drawn
  int64_t candidates_per_iter = 0; ///< candidate intervals enumerated
  double estimated_cost = 0.0;     ///< final estimated SSE (c of the tiling)
  /// Candidate-endpoint accounting for the kSampleEndpoints strategy: the
  /// endpoint count before and after max_candidates thinning. Equal when no
  /// thinning happened; both 0 under kAllIntervals. A gap between them is
  /// the thinning event surfaced in the Engine report telemetry — it used
  /// to be silent.
  int64_t endpoints_before_thinning = 0;
  int64_t endpoints_after_thinning = 0;
};

/// Non-aborting validation of everything LearnHistogram would otherwise
/// HISTK_CHECK — including that the derived sample counts are finite and
/// representable (extreme eps/sample_scale can blow the formulas up to
/// inf) and that max_candidates bounds the candidate table. The facade
/// calls this before touching the oracle, so no user-supplied spec can
/// reach an abort or an unbounded allocation.
Status ValidateLearnOptions(int64_t n, const LearnOptions& options);

/// The options' derived Algorithm 1 parameters (paper formulas + the
/// r_override knob). The single source both LearnHistogram and the engine
/// facade draw from — parity depends on there being exactly one derivation.
GreedyParams ComputeLearnParams(int64_t n, const LearnOptions& options);

/// Runs Algorithm 1 end to end: derives parameters from (n, k, eps), draws
/// samples from the oracle, and greedily builds the histogram.
LearnResult LearnHistogram(const Sampler& sampler, const LearnOptions& options,
                           Rng& rng);

/// The deterministic part of Algorithm 1 on pre-drawn samples: used by
/// tests and by experiments that share samples across strategies.
LearnResult LearnHistogramWithEstimator(const GreedyEstimator& estimator,
                                        const LearnOptions& options,
                                        const GreedyParams& params);

}  // namespace histk

#endif  // HISTK_CORE_GREEDY_H_
