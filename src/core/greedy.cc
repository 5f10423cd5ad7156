#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "util/common.h"
#include "util/math_util.h"

namespace histk {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The greedy state: the flattening of the priority histogram built so far,
/// as contiguous pieces with cached cost estimates, plus the memoized piece
/// costs of every candidate J (the design is described in greedy.h).
class GreedyState {
 public:
  GreedyState(const GreedyEstimator& estimator, std::vector<int64_t> endpoints)
      : est_(estimator),
        n_(estimator.n()),
        endpoints_(std::move(endpoints)),
        candidate_costs_(est_.PieceCostTable(endpoints_)) {
    pieces_.push_back(Interval::Full(n_));
    costs_.push_back(est_.PieceCost(pieces_[0]));
    total_ = costs_[0];
  }

  double total_cost() const { return total_; }

  int64_t num_candidates() const {
    return static_cast<int64_t>(candidate_costs_.size());
  }

  /// The candidate J minimizing the paper's c_J, the total estimated cost
  /// if J were added; the first minimum in scan order wins. Empty if there
  /// are no candidates.
  Interval BestCandidate() {
    PriceRemnants();
    double best_cost = kInf;
    Interval best_j;
    const size_t d = endpoints_.size();
    size_t idx = 0;
    for (size_t ai = 0; ai < d; ++ai) {
      for (size_t bi = ai; bi < d; ++bi, ++idx) {
        // The summation order is part of the output: c_J's rounding decides
        // near-ties, and tests/greedy_golden_test.cc pins the result.
        double delta = candidate_costs_[idx];
        for (size_t p = piece_of_[ai]; p <= piece_of_[bi]; ++p) delta -= costs_[p];
        delta += left_rem_cost_[ai];
        delta += right_rem_cost_[bi];
        const double c = total_ + delta;
        if (c < best_cost) {
          best_cost = c;
          best_j = Interval(endpoints_[ai], endpoints_[bi]);
        }
      }
    }
    return best_j;
  }

  /// Applies J: replaces the overlapped span by {left remnant, J, right
  /// remnant}. Records the paper's three priority entries in `out`.
  void Apply(Interval J, PriorityHistogram& out) {
    const size_t first = FirstOverlapping(J);
    size_t last = first;
    while (last + 1 < pieces_.size() && pieces_[last + 1].lo <= J.hi) ++last;

    const Interval left_rem(pieces_[first].lo, J.lo - 1);
    const Interval right_rem(J.hi + 1, pieces_[last].hi);

    std::vector<Interval> new_pieces;
    std::vector<double> new_costs;
    if (!left_rem.empty()) {
      new_pieces.push_back(left_rem);
      new_costs.push_back(est_.PieceCost(left_rem));
    }
    new_pieces.push_back(J);
    new_costs.push_back(est_.PieceCost(J));
    if (!right_rem.empty()) {
      new_pieces.push_back(right_rem);
      new_costs.push_back(est_.PieceCost(right_rem));
    }

    for (size_t i = first; i <= last; ++i) total_ -= costs_[i];
    for (double c : new_costs) total_ += c;

    pieces_.erase(pieces_.begin() + static_cast<ptrdiff_t>(first),
                  pieces_.begin() + static_cast<ptrdiff_t>(last + 1));
    costs_.erase(costs_.begin() + static_cast<ptrdiff_t>(first),
                 costs_.begin() + static_cast<ptrdiff_t>(last + 1));
    pieces_.insert(pieces_.begin() + static_cast<ptrdiff_t>(first), new_pieces.begin(),
                   new_pieces.end());
    costs_.insert(costs_.begin() + static_cast<ptrdiff_t>(first), new_costs.begin(),
                  new_costs.end());

    // Paper's bookkeeping: all three entries share the new top rank. Values
    // are densities (weight estimate / length); Theorem 2 writes the added
    // value as p(J)/|J| explicitly.
    const int64_t rank = out.size() == 0 ? 1 : out.entries().back().rank + 1;
    out.AddWithRank(J, Density(J), rank);
    if (!left_rem.empty()) out.AddWithRank(left_rem, Density(left_rem), rank);
    if (!right_rem.empty()) out.AddWithRank(right_rem, Density(right_rem), rank);
  }

  /// The current tiling with per-piece estimated densities.
  TilingHistogram ToTiling() const {
    std::vector<double> values;
    values.reserve(pieces_.size());
    for (const Interval& piece : pieces_) values.push_back(Density(piece));
    return TilingHistogram(n_, pieces_, values);
  }

 private:
  double Density(Interval I) const {
    return est_.WeightEstimate(I) / static_cast<double>(I.length());
  }

  /// Index of the first piece intersecting J (pieces tile the domain, so
  /// this is the piece containing J.lo).
  size_t FirstOverlapping(Interval J) const {
    const auto it = std::lower_bound(
        pieces_.begin(), pieces_.end(), J.lo,
        [](const Interval& piece, int64_t x) { return piece.hi < x; });
    HISTK_DCHECK(it != pieces_.end());
    return static_cast<size_t>(it - pieces_.begin());
  }

  /// Per endpoint e: the piece containing e, the cost of that piece's part
  /// left of e, and the cost of its part right of e. An empty remnant costs
  /// -0.0, the additive identity, so adding it leaves delta's bits as they
  /// were without the add.
  void PriceRemnants() {
    const size_t d = endpoints_.size();
    piece_of_.resize(d);
    left_rem_cost_.resize(d);
    right_rem_cost_.resize(d);
    size_t p = 0;
    for (size_t i = 0; i < d; ++i) {
      const int64_t e = endpoints_[i];
      while (pieces_[p].hi < e) ++p;
      piece_of_[i] = p;
      const Interval left_rem(pieces_[p].lo, e - 1);
      const Interval right_rem(e + 1, pieces_[p].hi);
      left_rem_cost_[i] = left_rem.empty() ? -0.0 : est_.PieceCost(left_rem);
      right_rem_cost_[i] = right_rem.empty() ? -0.0 : est_.PieceCost(right_rem);
    }
  }

  const GreedyEstimator& est_;
  int64_t n_;
  std::vector<Interval> pieces_;
  std::vector<double> costs_;
  double total_ = 0.0;

  std::vector<int64_t> endpoints_;       // ascending candidate endpoints T'
  std::vector<double> candidate_costs_;  // PieceCost(J), pairs in scan order
  std::vector<size_t> piece_of_;         // per endpoint, this iteration
  std::vector<double> left_rem_cost_;
  std::vector<double> right_rem_cost_;
};

/// Candidate endpoint list for Theorem 2: distinct samples and their +-1
/// neighbours, clamped to the domain, optionally thinned to respect
/// max_candidates. Reports the pre/post-thinning endpoint counts so the
/// caller can surface the (previously silent) truncation.
std::vector<int64_t> SampleEndpointList(const GreedyEstimator& est, int64_t n,
                                        int64_t max_candidates, bool with_neighbors,
                                        int64_t& before_thinning,
                                        int64_t& after_thinning) {
  std::vector<int64_t> pts;
  for (int64_t v : est.main().distinct_values()) {
    if (with_neighbors && v - 1 >= 0) pts.push_back(v - 1);
    pts.push_back(v);
    if (with_neighbors && v + 1 <= n - 1) pts.push_back(v + 1);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  before_thinning = static_cast<int64_t>(pts.size());
  if (max_candidates > 0) {
    // Candidates are all pairs a <= b: d(d+1)/2 <= max_candidates.
    const auto limit = static_cast<size_t>(
        (std::sqrt(8.0 * static_cast<double>(max_candidates) + 1.0) - 1.0) / 2.0);
    if (pts.size() > limit && limit >= 2) {
      std::vector<int64_t> thinned;
      thinned.reserve(limit);
      const double stride =
          static_cast<double>(pts.size() - 1) / static_cast<double>(limit - 1);
      for (size_t i = 0; i < limit; ++i) {
        thinned.push_back(pts[static_cast<size_t>(std::llround(
            static_cast<double>(i) * stride))]);
      }
      thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
      pts = std::move(thinned);
    }
  }
  after_thinning = static_cast<int64_t>(pts.size());
  return pts;
}

/// n(n+1)/2, the number of intervals of [0, n), saturating at INT64_MAX.
int64_t IntervalCount(int64_t n) {
  constexpr int64_t kMaxExact = 3'037'000'499;  // largest n with n(n+1) in int64
  return n <= kMaxExact ? n * (n + 1) / 2 : std::numeric_limits<int64_t>::max();
}

}  // namespace

const char* CandidateStrategyName(CandidateStrategy s) {
  return s == CandidateStrategy::kAllIntervals ? "all-intervals" : "sample-endpoints";
}

LearnResult LearnHistogramWithEstimator(const GreedyEstimator& estimator,
                                        const LearnOptions& options,
                                        const GreedyParams& params) {
  const int64_t n = estimator.n();
  HISTK_CHECK(options.k >= 1 && options.eps > 0.0 && options.eps < 1.0);

  std::vector<int64_t> endpoints;
  int64_t endpoints_before = 0;
  int64_t endpoints_after = 0;
  if (options.strategy == CandidateStrategy::kSampleEndpoints) {
    endpoints = SampleEndpointList(estimator, n, options.max_candidates,
                                   options.include_endpoint_neighbors,
                                   endpoints_before, endpoints_after);
  } else {
    // Algorithm 1 proper: every point is an endpoint, so the pairs are all
    // O(n^2) intervals.
    endpoints.resize(static_cast<size_t>(n));
    std::iota(endpoints.begin(), endpoints.end(), int64_t{0});
  }

  const int64_t iterations =
      options.iterations_override > 0 ? options.iterations_override : params.iterations;
  GreedyState state(estimator, std::move(endpoints));
  PriorityHistogram priority(n);
  for (int64_t iter = 0; iter < iterations; ++iter) {
    const Interval best_j = state.BestCandidate();
    if (best_j.empty()) break;  // no candidates at all (e.g. no samples)
    state.Apply(best_j, priority);
  }
  const int64_t candidates = iterations > 0 ? state.num_candidates() : 0;

  LearnResult result{std::move(priority), state.ToTiling(),   params,
                     estimator.TotalSamples(), candidates,    state.total_cost(),
                     endpoints_before,         endpoints_after};
  return result;
}

Status ValidateLearnOptions(int64_t n, const LearnOptions& options) {
  if (n < 2) return Status::InvalidArgument("learn needs a domain of n >= 2");
  if (options.k < 1 || options.k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(options.sample_scale > 0.0)) {
    return Status::InvalidArgument("sample_scale must be positive");
  }
  // The endpoint cap d(d+1)/2 <= max_candidates needs d >= 2; 1 and 2
  // would derive d = 1, which cannot thin, so the cap would silently be off.
  if (options.max_candidates < 0 || options.max_candidates == 1 ||
      options.max_candidates == 2) {
    return Status::InvalidArgument("max_candidates must be 0 (off) or >= 3, got " +
                                   std::to_string(options.max_candidates));
  }
  if (options.strategy == CandidateStrategy::kAllIntervals &&
      options.max_candidates > 0) {
    // Full enumeration cannot thin: every interval is a candidate with its
    // piece cost memoized, so the cap bounds n instead.
    const int64_t intervals = IntervalCount(n);
    if (intervals > options.max_candidates) {
      return Status::InvalidArgument(
          "all-intervals enumeration over n = " + std::to_string(n) + " has " +
          std::to_string(intervals) + " candidate intervals, above max_candidates = " +
          std::to_string(options.max_candidates) + "; use the sample-endpoints strategy");
    }
  }
  if (options.iterations_override < 0) {
    return Status::InvalidArgument("iterations_override must be >= 0 (0 = paper)");
  }
  if (options.r_override < 0 || options.r_override > SampleSetGroup::kMaxSets) {
    return Status::InvalidArgument("r_override must be in [0, " +
                                   std::to_string(SampleSetGroup::kMaxSets) +
                                   "] (0 = paper)");
  }
  if (!GreedyParamsRepresentable(n, options.k, options.eps, options.sample_scale)) {
    return Status::InvalidArgument(
        "eps/sample_scale imply a sample count beyond int64 (the formulas "
        "scale as eps^-2 per k ln(1/eps) step)");
  }
  return Status::Ok();
}

GreedyParams ComputeLearnParams(int64_t n, const LearnOptions& options) {
  GreedyParams params =
      ComputeGreedyParams(n, options.k, options.eps, options.sample_scale);
  if (options.r_override > 0) params.r = options.r_override;
  return params;
}

LearnResult LearnHistogram(const Sampler& sampler, const LearnOptions& options,
                           Rng& rng) {
  const GreedyParams params = ComputeLearnParams(sampler.n(), options);
  // All l + r*m draws ride the fused draw→count pipeline inside
  // GreedyEstimator::Draw; the rng consumption matches the historical
  // per-vector path, so seeded runs replay.
  const GreedyEstimator estimator = GreedyEstimator::Draw(sampler, params, rng);
  return LearnHistogramWithEstimator(estimator, options, params);
}

}  // namespace histk
