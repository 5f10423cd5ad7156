// DatasetSampler: the oracle over a materialized data set.
//
// Following the paper's data-set model, a file of items D (values in
// [0, n)) defines the distribution p = empirical(D), and the sample oracle
// draws uniformly random elements of D. This is exactly what tools/histk_cli
// does with its stdin items and histkd with its item uploads (both read
// through dist/io's ParseDataset), and what experiments use to run the
// learner on "real" data without knowing the generating process.
#ifndef HISTK_DIST_DATASET_H_
#define HISTK_DIST_DATASET_H_

#include <cstdint>
#include <vector>

#include "dist/distribution.h"
#include "dist/sampler.h"
#include "util/rng.h"
#include "util/status.h"

namespace histk {

/// The domain a data set is served over: `n` when the caller declares one
/// (n > 0), else max(items) + 1. The one rule histk_cli and histkd share.
int64_t DatasetDomain(int64_t n, const std::vector<int64_t>& items);

/// Uniform-over-items sample oracle. Immutable; Draw is O(1).
class DatasetSampler : public Sampler {
 public:
  /// Takes ownership of the items. Aborts unless the data set is non-empty
  /// and every item lies in [0, n). `kernel` selects the batch draw loop,
  /// with the same stream contracts as AliasSampler: kReplay (default) is
  /// the historical per-draw Lemire pick; kSimd runs the dispatched
  /// block-structured uniform kernel from src/dist/simd/ (one NextU64 per
  /// kShardChunk block; batch paths only — scalar Draw() is a one-block
  /// batch of its own).
  DatasetSampler(int64_t n, std::vector<int64_t> items,
                 AliasKernel kernel = AliasKernel::kReplay);

  int64_t n() const override { return n_; }
  AliasKernel kernel() const { return kernel_; }
  int64_t Draw(Rng& rng) const override;
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;

  /// Number of items |D|.
  int64_t size() const { return static_cast<int64_t>(items_.size()); }

  const std::vector<int64_t>& items() const { return items_; }

  /// The distribution this oracle samples: p(i) = occ(i, D)/|D|.
  Distribution EmpiricalDist() const;

  /// Largest domain TruthDist() materializes (n doubles, 32 MiB): the one
  /// cap on the dense truth that compare and voptimal need, in histk_cli
  /// and histkd alike.
  static constexpr int64_t kMaxTruthDomain = int64_t{1} << 22;

  /// EmpiricalDist() behind the kMaxTruthDomain guard: InvalidArgument
  /// naming the domain when n is larger.
  Result<Distribution> TruthDist() const;

 private:
  int64_t DrawImpl(Rng& rng) const {
    return items_[static_cast<size_t>(rng.UniformInt(items_.size()))];
  }

  int64_t n_ = 0;
  AliasKernel kernel_ = AliasKernel::kReplay;
  std::vector<int64_t> items_;
  simd::UniformDrawFn simd_uniform_fn_ = nullptr;  // kSimd only
};

}  // namespace histk

#endif  // HISTK_DIST_DATASET_H_
