// The y_I / z_I estimators Algorithm 1 is built on.
#ifndef HISTK_STATS_ESTIMATORS_H_
#define HISTK_STATS_ESTIMATORS_H_

#include <cstdint>
#include <vector>

#include "dist/sampler.h"
#include "sample/sample_set.h"
#include "stats/bounds.h"
#include "util/interval.h"
#include "util/rng.h"

namespace histk {

/// Bundles the main sample set S (for y_I = |S_I|/l) and the r collision
/// sets S^1..S^r of one size m (for z_I = median_j coll(S^j_I)/C(m,2)),
/// exposing the per-interval quantities Algorithm 1's cost function needs.
///
/// z_I has one definition: the lower median of the r integer collision
/// counts, divided once by C(m, 2). That is why the sets must share m, as
/// the paper draws them (GreedyEstimator::Draw, StreamHistogramBuilder's
/// equal-capacity reservoirs): with one denominator the integer median is
/// bit-identical to the median of the r per-set ratios.
class GreedyEstimator {
 public:
  /// Aborts unless main and group share n, main is non-empty, and every
  /// collision set holds the same m >= 2 samples.
  GreedyEstimator(SampleSet main, SampleSetGroup group);

  /// Draws l main samples and r sets of m samples per `params`, each set
  /// through the fused draw→count pipeline (no draw vector is ever
  /// materialized; see SampleSet::Draw).
  static GreedyEstimator Draw(const Sampler& sampler, const GreedyParams& params,
                              Rng& rng);

  int64_t n() const { return main_.n(); }

  /// y_I: estimate of the interval weight p(I) (Eq. 7).
  double WeightEstimate(Interval I) const;

  /// z_I: estimate of sum_{i in I} p_i^2 (Eq. 8 / Lemma 1).
  double SumSquaresEstimate(Interval I) const;

  /// The per-piece cost z_I - y_I^2/|I| from Algorithm 1's c_J: an estimate
  /// of the SSE of making I one bucket at its best constant. 0 for empty I.
  double PieceCost(Interval I) const;

  /// PieceCost([e_ai, e_bi]) for every pair ai <= bi of an ascending list of
  /// in-domain endpoints, in scan order (ai-major, then bi), bit for bit.
  /// Built from endpoint-indexed prefix counts: per endpoint e, the main
  /// set's count below e and below e + 1, and each collision set's
  /// collision pairs below e and below e + 1, in flat [endpoint][set]
  /// arrays (2*d*r u64). Each ai then walks bi upward keeping the r
  /// collision counts of [e_ai, e_bi] sorted by one insertion pass per
  /// step; the counts only grow with bi, so the order rarely changes and
  /// the median is a read at LowerMedianIndex(r).
  std::vector<double> PieceCostTable(const std::vector<int64_t>& endpoints) const;

  const SampleSet& main() const { return main_; }
  const SampleSetGroup& group() const { return group_; }

  /// Samples consumed (l + r*m).
  int64_t TotalSamples() const { return main_.m() + group_.TotalSamples(); }

 private:
  /// Algorithm 1's piece cost from the integer counts of one interval.
  double PieceCostFromCounts(int64_t count, uint64_t median_collisions,
                             int64_t length) const {
    const double y = static_cast<double>(count) / main_size_;
    const double z = static_cast<double>(median_collisions) / set_pairs_;
    return z - y * y / static_cast<double>(length);
  }

  SampleSet main_;
  SampleSetGroup group_;
  double main_size_ = 0.0;  // l = |S|
  double set_pairs_ = 0.0;  // C(m, 2) of the common collision-set size m
};

}  // namespace histk

#endif  // HISTK_STATS_ESTIMATORS_H_
