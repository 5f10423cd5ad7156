// Sample oracles: the access model of the paper.
//
// histk:hot-path — no locks permitted in this file (tools/lint_histk.py).
//
// Every algorithm in histk sees the unknown distribution only through a
// Sampler — the abstract i.i.d. sample oracle. Four draw paths exist:
//
//   * Draw(rng)                    — one sample.
//   * DrawMany(m, rng)             — m samples as a vector; a thin wrapper
//                                    over DrawManyInto.
//   * DrawManyInto(out, m, rng)    — the batched kernel every other path
//                                    bottoms out in: one virtual dispatch
//                                    per batch, then a dispatch-free inner
//                                    loop writing into caller-owned memory.
//   * DrawCounts(m, rng, sink)     — the fused draw→count path: draws are
//                                    produced in kShardChunk-sized chunks
//                                    (cache-resident) and handed to a
//                                    CountSink instead of being materialized
//                                    as one m-element vector. At m = 10^8
//                                    this skips gigabytes of memory traffic.
//
// DrawManySharded / DrawCountsSharded split a batch into fixed-size chunks
// on deterministically derived Rng streams and fan the chunks out over
// worker threads; their results depend only on (sampler, m, rng state),
// never on the thread count.
//
// Determinism invariant (relied on by the engine parity suites): for a given
// sampler every sequential path — Draw loops, DrawMany, DrawManyInto,
// DrawCounts — consumes the rng identically, so seeded runs replay
// regardless of which path a caller uses; the sharded paths consume exactly
// one NextU64 and replay at any worker count. AliasSampler's default kernel
// is additionally byte-identical to the historical (PR 2/3) per-draw
// sequence; the reordered vectorized kernel is opt-in (AliasKernel::kSimd).
//
// Samplers are immutable after construction and hold no rng state, so one
// sampler can serve many threads as long as each thread draws from its own
// Rng (fork streams with Rng::Fork()).
//
// Implementations:
//   * AliasSampler  — Walker/Vose alias method over a cache-line-friendly
//                     fused column table. Dense Distribution: one column per
//                     element (O(n) build, O(1)/draw). Bucket-backed: one
//                     column per *bucket* (O(k) build) carrying both its own
//                     and its alias target's run, so a draw touches exactly
//                     one table entry — O(1)/draw independent of n.
//   * CdfSampler    — binary search over the cdf, per element (dense,
//                     O(log n)/draw) or per bucket (bucket-backed,
//                     O(log k)/draw + O(1) within-bucket inversion); the
//                     baseline AliasSampler is validated against.
//   * DatasetSampler (dist/dataset.h) — uniform over a materialized data
//                     set, the CLI's model.
#ifndef HISTK_DIST_SAMPLER_H_
#define HISTK_DIST_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "dist/distribution.h"
#include "dist/simd/draw_kernels.h"
#include "util/rng.h"

namespace histk {

/// Destination of the fused draw→count path. DrawCounts feeds it draws in
/// chunks (each at most Sampler::kShardChunk long, values in [0, n)).
/// Chunks may arrive in any order — implementations must be
/// order-insensitive (counting is commutative, so any accumulator of
/// per-value occurrence counts qualifies). DrawCountsSharded never calls
/// Consume concurrently on the same sink object: it asks for one shard per
/// worker via AcquireShard and each worker consumes into its own shard, so
/// implementations that shard need no locks on the consume path.
/// sample/counter.h provides the standard SampleSet-building implementation.
class CountSink {
 public:
  virtual ~CountSink() = default;

  /// Accumulates `len` draws. The buffer is owned by the caller and invalid
  /// after return. Called from one thread at a time per sink object (the
  /// object returned by AcquireShard counts as a distinct sink).
  virtual void Consume(const int64_t* draws, int64_t len) = 0;

  /// Returns a sink a single worker thread may Consume into without
  /// synchronizing against other shards. Called only from the coordinating
  /// thread (before the workers that use the shard start), so overrides
  /// need no internal locking; the returned reference must stay valid until
  /// the owning sink is finalized. The default returns *this, which is only
  /// correct for implementations whose Consume tolerates concurrent callers
  /// — shardable accumulators override it (see SampleCounter).
  virtual CountSink& AcquireShard() { return *this; }
};

/// Abstract i.i.d. sample oracle for a distribution on [0, n).
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Domain size.
  virtual int64_t n() const = 0;

  /// One draw.
  virtual int64_t Draw(Rng& rng) const = 0;

  /// The batched kernel: writes `m` draws to `out` (caller-allocated, at
  /// least m elements). The default loops Draw; implementations override
  /// with a dispatch-free batch loop consuming the rng identically, so
  /// seeded runs replay regardless of which path a caller uses. Decorators
  /// (engine/budget.h) override to meter the batch.
  virtual void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const;

  /// `m` draws as a vector: allocates and delegates to DrawManyInto.
  std::vector<int64_t> DrawMany(int64_t m, Rng& rng) const;

  /// `m` draws, sharded: the batch is split into kShardChunk-sized chunks,
  /// chunk c drawn from its own Rng stream derived deterministically from
  /// one NextU64() of `rng` and c, and chunks are processed by up to
  /// `num_threads` workers (0 = hardware concurrency). The output depends
  /// only on (sampler, m, rng state) — NOT on the thread count — so seeded
  /// runs replay byte-identically at any parallelism. Exactly one NextU64()
  /// is consumed from `rng` regardless of m; the resulting sample stream is
  /// distinct from DrawMany's. Virtual so decorators (engine/budget.h) can
  /// account for the whole batch on the caller's thread before fan-out;
  /// overrides must preserve the thread-count invariance.
  virtual std::vector<int64_t> DrawManySharded(int64_t m, Rng& rng,
                                               int num_threads = 0) const;

  /// Fused draw→count: feeds `m` draws to `sink` in kShardChunk-sized
  /// chunks from one reused buffer, never materializing the batch. Consumes
  /// the rng identically to DrawMany(m), so the two paths are
  /// interchangeable under a fixed seed. Virtual only so decorators can
  /// meter the batch whole (all-or-nothing); the draw kernel itself is
  /// always DrawManyInto.
  virtual void DrawCounts(int64_t m, Rng& rng, CountSink& sink) const;

  /// Sharded fused draw→count: the chunk/stream structure of
  /// DrawManySharded (same derived Rng streams, one NextU64 consumed, same
  /// multiset of draws at any worker count) with each chunk handed to a
  /// per-worker shard of `sink` (CountSink::AcquireShard, acquired on the
  /// calling thread before fan-out) instead of written to a shared vector.
  /// Chunks arrive in any order, but no shard sees concurrent Consume
  /// calls, so the counting half of the pipeline scales with cores.
  virtual void DrawCountsSharded(int64_t m, Rng& rng, CountSink& sink,
                                 int num_threads = 0) const;

  /// Draws per derived stream in the sharded paths.
  static constexpr int64_t kShardChunk = int64_t{1} << 16;
};

/// Inner-loop strategy of AliasSampler.
enum class AliasKernel {
  /// Default: per-draw rng consumption byte-identical to the historical
  /// sampler (UniformInt(columns), NextDouble, and — bucket mode, length
  /// > 1 only — UniformInt(len)). Every seeded experiment replays.
  kReplay,
  /// Opt-in vectorized path (src/dist/simd/): kSimdLanes independent
  /// xoshiro lanes per step, alias lookups by AVX2 gather when the build
  /// (HISTK_SIMD) and the CPU (runtime CPUID, resolved once at sampler
  /// construction) both allow it, and a byte-identical scalar reference
  /// everywhere else — the SAME stream on every machine. The stream is
  /// block-structured: batches are cut into fixed kShardChunk blocks, each
  /// consuming one NextU64() of the caller's rng as the root of its lanes,
  /// so DrawMany / DrawCounts / the sharded paths all agree and stay
  /// thread-count invariant. Scalar Draw() loops therefore do NOT match
  /// DrawMany draw-for-draw (each Draw is its own one-block batch);
  /// batch-path parity is what the engine suites pin. Column and offset
  /// picks are 128-bit multiply-shifts, whose relative bias stays below
  /// columns/2^64 (< 2^-40 for any realistic table) — far under sampling
  /// noise, but not the exactly-unbiased Lemire pick, which is one reason
  /// this is opt-in. Accept tests are integer thresholds
  /// (simd::AcceptThreshold), exact to 2^-53. NOT byte-compatible with
  /// kReplay streams.
  kSimd,
};

/// Human-readable kernel name ("replay" / "simd") for CLI and
/// bench labels.
const char* AliasKernelName(AliasKernel kernel);

/// Walker/Vose alias method: O(columns) preprocessing, O(1) amortized per
/// draw, where columns = n (dense) or k (bucket-backed). Zero-mass columns
/// are excluded from the alias table outright, so zero-probability elements
/// are never returned (not even with fp-residue probability).
class AliasSampler : public Sampler {
 public:
  explicit AliasSampler(const Distribution& dist,
                        AliasKernel kernel = AliasKernel::kReplay);

  int64_t n() const override { return n_; }
  AliasKernel kernel() const { return kernel_; }
  int64_t Draw(Rng& rng) const override;
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;

 private:
  /// Dense column: acceptance threshold and reject target, interleaved so a
  /// draw touches one 16-byte entry (the historical layout touched two
  /// arrays a cache line apart).
  struct DenseCol {
    double prob;    // acceptance threshold; strict <, so prob 0 never accepts
    int64_t alias;  // element drawn on reject
  };

  /// Bucket column: the acceptance threshold plus BOTH candidate runs (own
  /// and alias target), so a draw resolves lo/len with one table load and a
  /// branchless select instead of a second dependent lookup.
  struct BucketCol {
    double prob;
    int64_t lo_self;
    int64_t len_self;
    int64_t lo_alias;
    int64_t len_alias;
  };

  void ReplayDenseInto(int64_t* out, int64_t m, Rng& rng) const;
  void ReplayBucketInto(int64_t* out, int64_t m, Rng& rng) const;
  /// kSimd batch loop: cuts m into kShardChunk blocks, spends one NextU64
  /// per block as the lane root, and runs the dispatched kernel on each.
  void SimdInto(int64_t* out, int64_t m, Rng& rng) const;

  int64_t n_ = 0;
  bool bucketed_ = false;
  AliasKernel kernel_ = AliasKernel::kReplay;
  std::vector<DenseCol> dense_cols_;
  std::vector<BucketCol> bucket_cols_;
  /// kSimd only: the gather-friendly all-integer table (dense: kDenseStride
  /// u64 per column; bucket: kBucketStride), thresholds precomputed by
  /// simd::AcceptThreshold, plus the kernel chosen at construction. The
  /// replay column vectors stay empty in this mode.
  std::vector<uint64_t> simd_cells_;
  uint64_t simd_ncols_ = 0;
  simd::DenseDrawFn simd_dense_fn_ = nullptr;
  simd::BucketDrawFn simd_bucket_fn_ = nullptr;
};

/// Inverse-cdf sampling by binary search: O(columns) preprocessing,
/// O(log columns) per draw. Slower than AliasSampler; kept as the
/// independently-correct baseline the alias table is cross-checked against.
class CdfSampler : public Sampler {
 public:
  explicit CdfSampler(const Distribution& dist);

  int64_t n() const override { return n_; }
  int64_t Draw(Rng& rng) const override;
  void DrawManyInto(int64_t* out, int64_t m, Rng& rng) const override;

 private:
  int64_t DrawImpl(Rng& rng) const;

  int64_t n_ = 0;
  bool bucketed_ = false;
  std::vector<double> cdf_;       // per element (dense) or per bucket;
                                  // back() == 1
  std::vector<int64_t> col_lo_;   // bucket mode: first element per bucket
  std::vector<int64_t> col_len_;  // bucket mode: elements per bucket
  std::vector<double> density_;   // bucket mode: per-element density
};

}  // namespace histk

#endif  // HISTK_DIST_SAMPLER_H_
