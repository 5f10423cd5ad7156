#include "stats/estimators.h"

#include <cstdint>
#include <numeric>

#include "util/common.h"
#include "util/math_util.h"

namespace histk {

GreedyEstimator::GreedyEstimator(SampleSet main, SampleSetGroup group)
    : main_(std::move(main)), group_(std::move(group)) {
  HISTK_CHECK_MSG(main_.n() == group_.n(), "main set / group domain mismatch");
  HISTK_CHECK_MSG(main_.m() >= 1, "main sample set is empty");
  const int64_t m = group_.set(0).m();
  for (int64_t j = 1; j < group_.r(); ++j) {
    HISTK_CHECK_MSG(group_.set(j).m() == m,
                    "collision sets must share one size m (unequal set sizes)");
  }
  HISTK_CHECK_MSG(m >= 2, "need at least 2 samples per collision set");
  main_size_ = static_cast<double>(main_.m());
  set_pairs_ = static_cast<double>(PairCount(static_cast<uint64_t>(m)));
}

GreedyEstimator GreedyEstimator::Draw(const Sampler& sampler, const GreedyParams& params,
                                      Rng& rng) {
  SampleSet main = SampleSet::Draw(sampler, params.l, rng);
  SampleSetGroup group = SampleSetGroup::Draw(sampler, params.r, params.m, rng);
  return GreedyEstimator(std::move(main), std::move(group));
}

double GreedyEstimator::WeightEstimate(Interval I) const {
  return static_cast<double>(main_.Count(I)) / main_size_;
}

double GreedyEstimator::SumSquaresEstimate(Interval I) const {
  return static_cast<double>(group_.MedianCollisions(I)) / set_pairs_;
}

double GreedyEstimator::PieceCost(Interval I) const {
  if (I.empty()) return 0.0;
  return PieceCostFromCounts(main_.Count(I), group_.MedianCollisions(I), I.length());
}

std::vector<double> GreedyEstimator::PieceCostTable(
    const std::vector<int64_t>& endpoints) const {
  const size_t d = endpoints.size();
  const size_t r = static_cast<size_t>(group_.r());
  // Row i holds the prefix counts below e_i (lo) and below e_i + 1 (hi), so
  // [e_ai, e_bi] counts hi[bi] - lo[ai].
  std::vector<int64_t> count_lo(d);
  std::vector<int64_t> count_hi(d);
  std::vector<uint64_t> coll_lo(d * r);
  std::vector<uint64_t> coll_hi(d * r);
  for (size_t i = 0; i < d; ++i) {
    const int64_t e = endpoints[i];
    HISTK_CHECK(e >= 0 && e < n() && (i == 0 || endpoints[i - 1] < e));
    count_lo[i] = main_.CountBelow(e);
    count_hi[i] = main_.CountBelow(e + 1);
    for (size_t j = 0; j < r; ++j) {
      const SampleSet& set = group_.set(static_cast<int64_t>(j));
      coll_lo[i * r + j] = set.CollisionsBelow(e);
      coll_hi[i * r + j] = set.CollisionsBelow(e + 1);
    }
  }

  // sorted[k] is the k-th smallest collision count of the current interval
  // and set_of[k] the set it belongs to.
  std::vector<uint64_t> sorted(r, 0);
  std::vector<uint32_t> set_of(r);
  std::iota(set_of.begin(), set_of.end(), uint32_t{0});
  const size_t mid = LowerMedianIndex(r);
  std::vector<double> table;
  table.reserve(d * (d + 1) / 2);
  for (size_t ai = 0; ai < d; ++ai) {
    const uint64_t* lo = &coll_lo[ai * r];
    for (size_t bi = ai; bi < d; ++bi) {
      const uint64_t* hi = &coll_hi[bi * r];
      // Refresh each set's count in the previous order. The counts only
      // grow with bi, so most stay put; the rest move down by insertion
      // (set_of[k] is read before any shift reaches it).
      uint64_t below = 0;  // sorted[k - 1], kept out of memory
      for (size_t k = 0; k < r; ++k) {
        const uint32_t j = set_of[k];
        const uint64_t v = hi[j] - lo[j];
        if (v >= below) {
          sorted[k] = v;
          below = v;
          continue;
        }
        size_t p = k;
        for (; p > 0 && sorted[p - 1] > v; --p) {
          sorted[p] = sorted[p - 1];
          set_of[p] = set_of[p - 1];
        }
        sorted[p] = v;
        set_of[p] = j;
        below = sorted[k];
      }
      table.push_back(PieceCostFromCounts(count_hi[bi] - count_lo[ai], sorted[mid],
                                          endpoints[bi] - endpoints[ai] + 1));
    }
  }
  return table;
}

}  // namespace histk
