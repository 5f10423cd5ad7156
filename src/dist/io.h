// Text serialization of distributions, tiling histograms, and data sets.
//
// Formats (line-oriented, whitespace-tolerant; values are written by
// util/json_writer.h's AppendRoundTripDouble, so they round-trip exactly):
//
//   histk-distribution v1
//   n <N>
//   <p0> <p1> ... <pN-1>
//
//   histk-tiling-histogram v1
//   n <N> k <K>
//   <right_end> <value>            (one line per piece, ends ascending,
//   ...                             last end = N-1)
//
//   data sets: one integer item per line (the histk_cli stdin format).
//
// Writers abort only on stream failure at the caller's discretion; readers
// never abort. The Parse* functions are the primary API: malformed input
// yields a Status::ParseError whose message names the 1-based input line
// ("line 3: expected a finite value"). The historical Read* functions are
// thin wrappers that discard the diagnosis and return std::nullopt.
#ifndef HISTK_DIST_IO_H_
#define HISTK_DIST_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "dist/distribution.h"
#include "histogram/tiling.h"
#include "util/status.h"

namespace histk {

/// Writes the histk-distribution v1 format.
void WriteDistribution(std::ostream& os, const Distribution& d);

/// Parses a histk-distribution v1 stream. ParseError (with line number) on
/// wrong magic/version, truncation, negative or non-finite entries, or a
/// pmf that does not sum to 1.
Result<Distribution> ParseDistribution(std::istream& is);

/// ParseDistribution with the diagnosis discarded (historical API).
std::optional<Distribution> ReadDistribution(std::istream& is);

/// Writes the histk-tiling-histogram v1 format.
void WriteTilingHistogram(std::ostream& os, const TilingHistogram& h);

/// Parses a histk-tiling-histogram v1 stream. ParseError (with line number)
/// on wrong magic/version, truncation, k < 1 or k > n, non-ascending ends,
/// a final end != n-1, or non-finite values.
Result<TilingHistogram> ParseTilingHistogram(std::istream& is);

/// ParseTilingHistogram with the diagnosis discarded (historical API).
std::optional<TilingHistogram> ReadTilingHistogram(std::istream& is);

/// Writes a Distribution in the histk-tiling-histogram v1 format, one piece
/// per constant run with the per-element density as the piece value. A
/// bucket-backed distribution writes its k runs directly (O(k) regardless
/// of n); a dense one is run-length compressed on the fly (exactly equal
/// neighbors merge). This is the on-disk form for huge domains, where the
/// per-element histk-distribution v1 format is infeasible.
void WriteBucketDistribution(std::ostream& os, const Distribution& d);

/// Parses a histk-tiling-histogram v1 stream straight into a bucket-backed
/// Distribution: piece values are per-element densities and the implied
/// total mass must be 1 within Distribution::kPmfSumTolerance. Never
/// densifies — time and memory are O(k) whatever n is. ParseError on
/// malformed input, negative densities, or mass not summing to 1. Like
/// ParseDistribution, the reader renormalizes the parsed values, so a
/// write/read cycle can perturb densities by an ulp (it is not bit-exact).
Result<Distribution> ParseBucketDistribution(std::istream& is);

/// ParseBucketDistribution with the diagnosis discarded (historical API).
std::optional<Distribution> ReadBucketDistribution(std::istream& is);

/// Writes a data set: one item per line.
void WriteDataset(std::ostream& os, const std::vector<int64_t>& items);

/// Full-token numeric parses (the whole token must consume; out-of-range
/// rejects): the one strtoll/strtod wrapper shared by the io grammars and
/// histk_cli's flag parsing.
bool TokenToI64(const std::string& token, int64_t& out);
bool TokenToF64(const std::string& token, double& out);

/// Streams a data set without materializing it: `item` is invoked for every
/// integer token in order (any value, including negatives — filtering is
/// the caller's policy) with its 1-based line number; a non-ok return stops
/// the scan and is propagated. ParseError on a malformed token or a stream
/// read error, again with the line. This is the one dataset grammar —
/// ParseDataset and histk_cli's chunked ingestion are both built on it.
Status ScanDataset(std::istream& is,
                   const std::function<Status(int64_t item, int64_t line)>& item);

/// Reads a data set (one integer per line) until EOF. ParseError (with line
/// number) if the stream contains a non-integer token or an item outside
/// [0, n) for n > 0 (pass n = 0 to accept any non-negative items).
Result<std::vector<int64_t>> ParseDataset(std::istream& is, int64_t n = 0);

/// ParseDataset with the diagnosis discarded (historical API).
std::optional<std::vector<int64_t>> ReadDataset(std::istream& is, int64_t n = 0);

}  // namespace histk

#endif  // HISTK_DIST_IO_H_
