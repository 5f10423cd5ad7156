#include "sample/sample_set.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "sample/counter.h"
#include "util/common.h"
#include "util/math_util.h"

namespace histk {

SampleSet::SampleSet(int64_t n, int64_t m) : n_(n), m_(m) {
  HISTK_CHECK(n >= 1 && m >= 0);
}

SampleSet SampleSet::FromDraws(int64_t n, const std::vector<int64_t>& draws) {
  if (n <= kDenseDomainLimit) {
    std::vector<int64_t> counts(static_cast<size_t>(n), 0);
    for (int64_t v : draws) {
      HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
      ++counts[static_cast<size_t>(v)];
    }
    return FromCounts(n, counts);
  }
  // Sparse: the sort must not mutate the caller's vector, so copy first
  // (callers that can part with the batch use the move-in overload).
  std::vector<int64_t> sorted = draws;
  return FromDraws(n, std::move(sorted));
}

SampleSet SampleSet::FromDraws(int64_t n, std::vector<int64_t>&& draws) {
  if (n <= kDenseDomainLimit) return FromDraws(n, draws);
  // Sparse: sort in place, then run-length encode.
  std::vector<int64_t> sorted = std::move(draws);
  std::sort(sorted.begin(), sorted.end());
  SampleSet s(n, static_cast<int64_t>(sorted.size()));
  s.sparse_prefix_count_.push_back(0);
  s.sparse_prefix_coll_.push_back(0);
  for (size_t i = 0; i < sorted.size();) {
    const int64_t v = sorted[i];
    HISTK_CHECK_MSG(v >= 0 && v < n, "draw out of domain");
    size_t j = i;
    while (j < sorted.size() && sorted[j] == v) ++j;
    const uint64_t occ = static_cast<uint64_t>(j - i);
    s.distinct_.push_back(v);
    s.sparse_prefix_count_.push_back(s.sparse_prefix_count_.back() +
                                     static_cast<int64_t>(occ));
    s.sparse_prefix_coll_.push_back(s.sparse_prefix_coll_.back() + PairCount(occ));
    i = j;
  }
  return s;
}

SampleSet SampleSet::FromRuns(int64_t n, std::vector<int64_t> values,
                              const std::vector<int64_t>& counts) {
  HISTK_CHECK(values.size() == counts.size());
  if (n <= kDenseDomainLimit) {
    // Dense domains keep the dense backend (same policy as FromDraws, so
    // the two construction paths yield indistinguishable sets).
    std::vector<int64_t> full(static_cast<size_t>(n), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      const int64_t v = values[i];
      HISTK_CHECK_MSG(v >= 0 && v < n, "run value out of domain");
      HISTK_CHECK_MSG(counts[i] > 0, "run count must be positive");
      HISTK_CHECK_MSG(i == 0 || values[i - 1] < v, "run values must be increasing");
      full[static_cast<size_t>(v)] = counts[i];
    }
    return FromCounts(n, full);
  }
  int64_t m = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t v = values[i];
    HISTK_CHECK_MSG(v >= 0 && v < n, "run value out of domain");
    HISTK_CHECK_MSG(counts[i] > 0, "run count must be positive");
    HISTK_CHECK_MSG(i == 0 || values[i - 1] < v, "run values must be increasing");
    m += counts[i];
  }
  SampleSet s(n, m);
  s.sparse_prefix_count_.reserve(values.size() + 1);
  s.sparse_prefix_coll_.reserve(values.size() + 1);
  s.sparse_prefix_count_.push_back(0);
  s.sparse_prefix_coll_.push_back(0);
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t occ = static_cast<uint64_t>(counts[i]);
    s.sparse_prefix_count_.push_back(s.sparse_prefix_count_.back() + counts[i]);
    s.sparse_prefix_coll_.push_back(s.sparse_prefix_coll_.back() + PairCount(occ));
  }
  s.distinct_ = std::move(values);
  return s;
}

SampleSet SampleSet::FromCounts(int64_t n, const std::vector<int64_t>& counts) {
  HISTK_CHECK(static_cast<int64_t>(counts.size()) == n);
  int64_t m = 0;
  for (int64_t c : counts) {
    HISTK_CHECK(c >= 0);
    m += c;
  }
  SampleSet s(n, m);
  s.dense_ = true;
  s.prefix_count_.resize(static_cast<size_t>(n) + 1, 0);
  s.prefix_coll_.resize(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t occ = static_cast<uint64_t>(counts[static_cast<size_t>(i)]);
    s.prefix_count_[static_cast<size_t>(i) + 1] =
        s.prefix_count_[static_cast<size_t>(i)] + counts[static_cast<size_t>(i)];
    s.prefix_coll_[static_cast<size_t>(i) + 1] =
        s.prefix_coll_[static_cast<size_t>(i)] + PairCount(occ);
    if (occ > 0) s.distinct_.push_back(i);
  }
  return s;
}

SampleSet SampleSet::Draw(const Sampler& sampler, int64_t m, Rng& rng) {
  SampleCounter counter(sampler.n(), m);
  sampler.DrawCounts(m, rng, counter);
  return counter.Build();
}

SampleSet SampleSet::DrawSharded(const Sampler& sampler, int64_t m, Rng& rng,
                                 int num_threads) {
  SampleCounter counter(sampler.n(), m);
  sampler.DrawCountsSharded(m, rng, counter, num_threads);
  return counter.Build();
}

int64_t SampleSet::Count(Interval I) const {
  I = I.Intersect(Interval::Full(n_));
  if (I.empty()) return 0;
  return CountBelow(I.hi + 1) - CountBelow(I.lo);
}

uint64_t SampleSet::Collisions(Interval I) const {
  I = I.Intersect(Interval::Full(n_));
  if (I.empty()) return 0;
  return CollisionsBelow(I.hi + 1) - CollisionsBelow(I.lo);
}

size_t SampleSet::DistinctBelow(int64_t x) const {
  return static_cast<size_t>(std::lower_bound(distinct_.begin(), distinct_.end(), x) -
                             distinct_.begin());
}

int64_t SampleSet::CountBelow(int64_t x) const {
  HISTK_DCHECK(x >= 0 && x <= n_);
  if (dense_) return prefix_count_[static_cast<size_t>(x)];
  return sparse_prefix_count_[DistinctBelow(x)];
}

uint64_t SampleSet::CollisionsBelow(int64_t x) const {
  HISTK_DCHECK(x >= 0 && x <= n_);
  if (dense_) return prefix_coll_[static_cast<size_t>(x)];
  return sparse_prefix_coll_[DistinctBelow(x)];
}

double SampleSet::SumSquaresEstimate(Interval I) const {
  HISTK_CHECK_MSG(m_ >= 2, "need at least 2 samples for a collision estimate");
  return static_cast<double>(Collisions(I)) /
         static_cast<double>(PairCount(static_cast<uint64_t>(m_)));
}

std::optional<double> SampleSet::CondCollisionRate(Interval I) const {
  const int64_t c = Count(I);
  if (c < 2) return std::nullopt;
  return static_cast<double>(Collisions(I)) /
         static_cast<double>(PairCount(static_cast<uint64_t>(c)));
}

SampleSetGroup SampleSetGroup::Draw(const Sampler& sampler, int64_t r, int64_t m,
                                    Rng& rng) {
  HISTK_CHECK(r >= 1 && m >= 2);
  std::vector<SampleSet> sets;
  sets.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) sets.push_back(SampleSet::Draw(sampler, m, rng));
  return SampleSetGroup(std::move(sets));
}

SampleSetGroup SampleSetGroup::DrawSharded(const Sampler& sampler, int64_t r,
                                           int64_t m, Rng& rng, int num_threads) {
  HISTK_CHECK(r >= 1 && m >= 2);
  std::vector<SampleSet> sets;
  sets.reserve(static_cast<size_t>(r));
  for (int64_t i = 0; i < r; ++i) {
    sets.push_back(SampleSet::DrawSharded(sampler, m, rng, num_threads));
  }
  return SampleSetGroup(std::move(sets));
}

SampleSetGroup::SampleSetGroup(std::vector<SampleSet> sets) : sets_(std::move(sets)) {
  HISTK_CHECK(!sets_.empty());
  HISTK_CHECK_MSG(r() <= kMaxSets, "a sample-set group holds at most kMaxSets sets");
  for (const auto& s : sets_) HISTK_CHECK(s.n() == sets_.front().n());
}

int64_t SampleSetGroup::n() const { return sets_.front().n(); }

const SampleSet& SampleSetGroup::set(int64_t i) const {
  HISTK_CHECK(i >= 0 && i < r());
  return sets_[static_cast<size_t>(i)];
}

// The median combiners select in a stack buffer of kMaxSets slots, so a
// query allocates nothing; only the first r() slots are written and read.

double SampleSetGroup::MedianSumSquaresEstimate(Interval I) const {
  std::array<double, kMaxSets> vals;
  for (size_t j = 0; j < sets_.size(); ++j) vals[j] = sets_[j].SumSquaresEstimate(I);
  return LowerMedianInPlace(vals.data(), sets_.size());
}

uint64_t SampleSetGroup::MedianCollisions(Interval I) const {
  std::array<uint64_t, kMaxSets> colls;
  for (size_t j = 0; j < sets_.size(); ++j) colls[j] = sets_[j].Collisions(I);
  return LowerMedianInPlace(colls.data(), sets_.size());
}

double SampleSetGroup::MedianCondCollisionRate(Interval I) const {
  std::array<double, kMaxSets> vals;
  for (size_t j = 0; j < sets_.size(); ++j) {
    vals[j] = sets_[j].CondCollisionRate(I).value_or(0.0);
  }
  return LowerMedianInPlace(vals.data(), sets_.size());
}

int64_t SampleSetGroup::TotalSamples() const {
  int64_t total = 0;
  for (const auto& s : sets_) total += s.m();
  return total;
}

}  // namespace histk
