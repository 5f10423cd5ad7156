// histkd_bench_trace — the per-layer run. Replays the request lines the
// load generator sent, in the same order and against the same files,
// through the public functions HistkdServer::HandleLine / RunTask call
// (src/serve/server.cc), timing each call from outside:
//
//   histkd_bench_trace --seconds S --counts C1,C2,... --out trace.json
//
// Runs in the run directory (common.h). Warm-up stages and post sends are
// replayed whole; each measured phase replays its first C_i schedule
// entries (what the load generator sent) but stops after its share of S
// seconds. The replay keeps its own DatasetStore and SynopsisCache with
// the daemon's default capacities, so hits, misses, loads and evictions
// follow the same sequence.
//
// Layers inside the daemon's serve_ms window (parse .. cache insert) add
// up per request; run.py compares that sum with the untraced serve_ms.
// The attribution calls (estimator draw + greedy scan of a miss, the test
// draw + decision, ingest sub-steps) re-run work a layer call already did,
// so they are timed separately and never summed. A re-run whose result
// differs from the replayed request's is counted in "mismatches".
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "common.h"
#include "core/greedy.h"
#include "core/property_tester.h"
#include "core/tester.h"
#include "dist/dataset.h"
#include "dist/io.h"
#include "dist/quantiles.h"
#include "histogram/ops.h"
#include "sample/sample_set.h"
#include "serve/dataset_store.h"
#include "serve/fingerprint.h"
#include "serve/synopsis_cache.h"
#include "stream/concurrent_histogram.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using histk::Report;
using histk::Result;
using histk::Status;
using histk::api::CacheState;
using histk::api::RequestKind;
using histk::api::RequestSpec;
using histk::api::ResponseEnvelope;
using histk::serve::CachedSynopsis;
using histk::serve::ServedDataset;

/// The daemon's defaults (serve::ServeOptions).
constexpr int64_t kCacheEntries = 64;
constexpr int64_t kMaxDatasets = 16;
constexpr int kPieceCostProbes = 4096;

class Tracer {
 public:
  Tracer()
      : governor_(histk::SessionGovernor::Limits{}),
        cache_(kCacheEntries),
        store_(kMaxDatasets, histk::AliasKernel::kReplay,
               histk::serve::FsRefPolicy{true, "data"}) {}

  void Replay(const std::string& line, const Template& t) {
    inside_ns_ = 0;
    const int64_t start = NowNs();
    const bool inline_upload = line.find("\"items\":") != std::string::npos;
    Result<RequestSpec> parsed = Status::Internal("unparsed");
    Time(inline_upload ? "api.parse_upload_ms" : "api.parse_us", true,
         [&] { parsed = histk::api::ParseRequestJson(line); });
    if (!parsed.ok()) return Mismatch("parse: " + parsed.status().message());
    const RequestSpec& req = *parsed;

    std::shared_ptr<ServedDataset> ds = Resolve(req.dataset, req, t.load_ref);
    if (ds == nullptr) return;
    std::shared_ptr<ServedDataset> other;
    if (req.kind == RequestKind::kCloseness) {
      const bool load = req.other.kind != histk::api::DatasetRef::Kind::kFingerprint;
      other = Resolve(req.other, req, load);
      if (other == nullptr) return;
    }

    Result<histk::TaskSpec> spec = Status::Internal("unbuilt");
    Time("api.build_spec_us", true, [&] { spec = histk::api::BuildTaskSpec(req); });
    if (!spec.ok()) return Mismatch("spec: " + spec.status().message());
    std::string key;
    Time("api.synopsis_key_us", true,
         [&] { key = histk::api::CanonicalSynopsisKey(req, ds->fingerprint_hex()); });

    ResponseEnvelope env;
    env.id = req.id;
    env.has_id = true;
    env.kind = histk::api::RequestKindName(req.kind);
    env.fingerprint = ds->fingerprint_hex();
    Report report;
    std::shared_ptr<const CachedSynopsis> hit;
    bool ran = false;  // the engine produced a report
    if (!key.empty()) {
      Time("serve.cache_lookup_us", true, [&] { hit = cache_.Lookup(key); });
      env.cache = hit != nullptr ? CacheState::kHit : CacheState::kMiss;
    }
    if (hit != nullptr) {
      AnswerFromSynopsis(req, *hit, *ds, report);
    } else {
      ran = RunEngine(req, *spec, *ds, other.get(), report);
      if (!key.empty() && !report.degraded && report.learn.has_value()) {
        Time("serve.cache_insert_us", true, [&] {
          cache_.Insert(key, std::make_shared<CachedSynopsis>(
                                 *report.learn, report.telemetry, report.retries));
        });
      }
    }
    env.status = report.status;
    env.degraded = report.degraded;
    env.retries = report.retries;
    env.report = &report;
    const int64_t serve_ns = NowNs() - start;
    env.serve_ms = static_cast<double>(serve_ns) / 1e6;

    // The load generator's classes: a hit by fingerprint, or any miss.
    const bool is_hit = hit != nullptr && !t.load_ref;
    const bool is_learn = hit == nullptr && !key.empty();
    std::string response;
    Time(hit != nullptr ? "api.write_response_us" : "", false,
         [&] { response = histk::api::WriteResponseJson(env); });
    if (hit != nullptr) Add("api.response_bytes", static_cast<double>(response.size()));
    if (is_hit) {
      covered_["hit"].push_back({inside_ns_, serve_ns});
    } else if (is_learn) {
      covered_["learn"].push_back({inside_ns_, serve_ns});
    }
    // Attribution re-runs happen after the request's own timings.
    if (ran && report.status == histk::StatusCode::kOk) {
      Attribute(req, *spec, *ds, other.get(), report);
    }
    for (const std::function<void()>& fn : deferred_) fn();
    deferred_.clear();
  }

  std::string Json(int64_t replayed_measured) {
    std::string out = "{\"layers\": {";
    for (auto& [name, values] : samples_) {
      if (out.back() != '{') out += ", ";
      out += "\"" + name + "\": {";
      AppendField(out, "n", static_cast<double>(values.size()));
      AppendField(out, "median", Quantile(values, 0.5));
      out += "}";
    }
    out += "}, \"coverage\": {";
    for (auto& [cls, pairs] : covered_) {
      std::vector<double> inside, serve, uncovered;
      for (auto& [in, total] : pairs) {
        inside.push_back(static_cast<double>(in) / 1e6);
        serve.push_back(static_cast<double>(total) / 1e6);
        uncovered.push_back(1.0 - static_cast<double>(in) / static_cast<double>(total));
      }
      if (out.back() != '{') out += ", ";
      out += "\"" + cls + "\": {";
      AppendField(out, "n", static_cast<double>(pairs.size()));
      AppendField(out, "layers_p50_ms", Quantile(inside, 0.5));
      AppendField(out, "serve_p50_ms", Quantile(serve, 0.5));
      AppendField(out, "uncovered_p50", Quantile(uncovered, 0.5));
      out += "}";
    }
    out += "}, \"counters\": {";
    const histk::serve::SynopsisCache::Counters c = cache_.counters();
    const histk::serve::DatasetStore::Counters d = store_.counters();
    AppendField(out, "cache_hits", static_cast<double>(c.hits));
    AppendField(out, "cache_misses", static_cast<double>(c.misses));
    AppendField(out, "cache_evictions", static_cast<double>(c.evictions));
    AppendField(out, "dataset_loads", static_cast<double>(d.loads));
    AppendField(out, "dataset_evictions", static_cast<double>(d.evictions));
    AppendField(out, "mismatches", static_cast<double>(mismatches_.size()));
    AppendField(out, "replayed_measured", static_cast<double>(replayed_measured));
    out += "}, \"mismatch_messages\": [";
    for (size_t i = 0; i < mismatches_.size() && i < 8; ++i) {
      std::string quoted;
      histk::api::AppendJsonString(quoted, mismatches_[i]);
      out += (i ? ", " : "") + quoted;
    }
    out += "]}\n";
    return out;
  }

 private:
  /// Times fn(); records the duration under `name` in the unit the name
  /// carries (_ms, _us, else ns) unless name is empty; `inside` adds it to
  /// the request's serve-window sum.
  template <typename F>
  void Time(const std::string& name, bool inside, F&& fn) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t ns = NowNs() - t0;
    if (inside) inside_ns_ += ns;
    if (name.empty()) return;
    double unit = 1.0;
    if (name.find("_ms") != std::string::npos) unit = 1e6;
    if (name.find("_us") != std::string::npos) unit = 1e3;
    Add(name, static_cast<double>(ns) / unit);
  }

  void Add(const std::string& name, double value) { samples_[name].push_back(value); }

  void Mismatch(const std::string& why) { mismatches_.push_back(why); }

  std::shared_ptr<ServedDataset> Resolve(const histk::api::DatasetRef& ref,
                                         const RequestSpec& req, bool load_ref) {
    const int64_t loads = store_.counters().loads;
    Result<std::shared_ptr<ServedDataset>> ds = Status::Internal("unresolved");
    Time(load_ref ? "serve.resolve_upload_ms" : "serve.resolve_us", true,
         [&] { ds = store_.Resolve(ref, req.n, req.reservoir); });
    if (!ds.ok()) {
      Mismatch("resolve: " + ds.status().message());
      return nullptr;
    }
    if (load_ref) {
      const bool loaded = store_.counters().loads > loads;
      deferred_.push_back(
          [this, ref, n = req.n, loaded] { AttributeIngest(ref, n, loaded); });
    }
    return *ds;
  }

  /// Re-times the steps DatasetStore::Resolve ran for a loading ref.
  void AttributeIngest(const histk::api::DatasetRef& ref, int64_t n, bool loaded) {
    using Kind = histk::api::DatasetRef::Kind;
    if (ref.kind == Kind::kSketch) {
      std::ifstream in(ref.path);
      Time("stream.sketch_parse_ms", false, [&] { (void)histk::ParseSnapshot(in); });
      return;
    }
    std::vector<int64_t> items;
    if (ref.kind == Kind::kPath) {
      std::ifstream in(ref.path);
      Time("dist.scan_dataset_ms", false, [&] {
        (void)histk::ScanDataset(in, [&items](int64_t item, int64_t) {
          items.push_back(item);
          return Status::Ok();
        });
      });
    } else {
      items = ref.items;
    }
    Time("serve.fingerprint_ms", false,
         [&] { (void)histk::serve::FingerprintItems(n, items); });
    if (loaded) {
      Time("dist.sampler_build_ms", false,
           [&] { histk::DatasetSampler sampler(n, std::move(items)); });
    }
  }

  /// AnswerEstimateFromSynopsis / ReconstructLearnReport (server.cc),
  /// with the histogram and quantile calls timed.
  void AnswerFromSynopsis(const RequestSpec& req, const CachedSynopsis& cached,
                          const ServedDataset& ds, Report& out) {
    out.outcome = histk::TaskOutcome::kOk;
    out.status = histk::StatusCode::kOk;
    if (req.kind == RequestKind::kLearn) {
      out.task = "learn";
      out.retries = cached.retries;
      out.telemetry = cached.telemetry;
      out.learn = cached.result;
      return;
    }
    std::optional<histk::TilingHistogram> synopsis;
    Time("histogram.reduce_us", true,
         [&] { synopsis = histk::ReduceToKPieces(cached.result.tiling, req.k); });
    histk::EstimateAnswers answers;
    std::optional<histk::Distribution> dist;
    if (!req.quantiles.empty()) {
      Time("histogram.to_distribution_us", true,
           [&] { dist = synopsis->ToDistribution(); });
    }
    Time("dist.quantile_us", true, [&] {
      for (double q : req.quantiles) {
        answers.quantiles.push_back({q, histk::Quantile(*dist, q)});
      }
      for (const histk::Interval& range : req.ranges) {
        histk::EstimateAnswers::SelectivityAnswer answer;
        answer.range = range;
        answer.estimate = synopsis->Mass(range);
        if (ds.session_truth() != nullptr) {
          answer.truth = ds.session_truth()->Weight(range);
        }
        answers.selectivity.push_back(answer);
      }
    });
    out.task = "estimate";
    out.telemetry.budget = req.budget;
    out.telemetry.candidates_per_iter = cached.result.candidates_per_iter;
    out.telemetry.endpoints_before_thinning = cached.result.endpoints_before_thinning;
    out.telemetry.endpoints_after_thinning = cached.result.endpoints_after_thinning;
    out.estimate = std::move(answers);
    out.reduced = std::move(*synopsis);
    out.learn = cached.result;
  }

  /// Engine::Run, timed; false (and a mismatch) when it returns an error.
  bool RunEngine(const RequestSpec& req, histk::TaskSpec& spec, const ServedDataset& ds,
                 const ServedDataset* other, Report& report) {
    std::visit([this](auto& task) { task.policy.governor = &governor_; }, spec);
    if (other != nullptr) std::get<histk::ClosenessSpec>(spec).other = &other->oracle();
    const std::string kind = histk::api::RequestKindName(req.kind);
    Result<Report> result = Status::Internal("not run");
    Time("engine.run_ms." + kind, true, [&] { result = ds.engine().Run(spec); });
    if (!result.ok()) {
      Mismatch("engine: " + result.status().message());
      return false;
    }
    report = std::move(*result);
    Add("engine.samples_per_run." + kind,
        static_cast<double>(report.telemetry.samples_drawn));
    return true;
  }

  /// Re-runs the engine task's inner calls on the same oracle and seed.
  void Attribute(const RequestSpec& req, const histk::TaskSpec& spec,
                 const ServedDataset& ds, const ServedDataset* other,
                 const Report& report) {
    const histk::Sampler& oracle = ds.oracle();
    histk::Rng rng(req.seed);
    if (req.kind == RequestKind::kLearn || req.kind == RequestKind::kEstimate) {
      histk::LearnOptions options;
      if (const auto* learn = std::get_if<histk::LearnSpec>(&spec)) {
        options = learn->options;
      } else {
        const auto& est = std::get<histk::EstimateSpec>(spec);
        options.k = est.k;
        options.eps = est.eps;
        options.sample_scale = est.sample_scale;
      }
      const histk::GreedyParams params = histk::ComputeLearnParams(oracle.n(), options);
      std::optional<histk::GreedyEstimator> est;
      Time("sample.estimator_draw_ms", false,
           [&] { est.emplace(histk::GreedyEstimator::Draw(oracle, params, rng)); });
      std::optional<histk::LearnResult> learned;
      Time("core.greedy_ms", false, [&] {
        learned = histk::LearnHistogramWithEstimator(*est, options, params);
      });
      if (!SameTiling(learned->tiling, report.learn->tiling)) {
        Mismatch("greedy re-run tiling differs from the engine's");
      }
      Add("core.candidates_per_iter",
          static_cast<double>(learned->candidates_per_iter));
      Add("core.iterations", static_cast<double>(params.iterations));
      TimePieceCost(*est);
    } else if (req.kind == RequestKind::kTest) {
      const histk::TestConfig& config = std::get<histk::TestSpec>(spec).config;
      const histk::TesterParams params = histk::ComputeTesterParams(oracle.n(), config);
      std::optional<histk::SampleSetGroup> group;
      Time("sample.test_draw_ms", false, [&] {
        group.emplace(histk::SampleSetGroup::Draw(oracle, params.r, params.m, rng));
      });
      bool accepted = false;
      Time("core.test_decide_ms", false,
           [&] { accepted = histk::TestKHistogramOnGroup(*group, config).accepted; });
      if (accepted != report.test->accepted) Mismatch("test re-run decision differs");
    } else if (req.kind == RequestKind::kPropertyTest) {
      const histk::PropertyTestConfig& config =
          std::get<histk::PropertyTestSpec>(spec).config;
      const histk::PropertyTesterParams params =
          histk::ComputePropertyTestParams(oracle.n(), config);
      const histk::SampleSetGroup group =
          histk::SampleSetGroup::Draw(oracle, params.verify_r, params.verify_m, rng);
      Time("core.ptest_verify_ms", false, [&] {
        const histk::VerificationPlan plan =
            histk::BuildVerificationPlan(*report.property_test->candidate, config);
        (void)histk::DecidePropertyTest(plan, group);
      });
    } else if (req.kind == RequestKind::kCloseness) {
      const histk::ClosenessConfig& config =
          std::get<histk::ClosenessSpec>(spec).config;
      const histk::ClosenessParams params =
          histk::ComputeClosenessTestParams(oracle.n(), config);
      const histk::SampleSetGroup gp =
          histk::SampleSetGroup::Draw(oracle, params.verify_r, params.verify_m, rng);
      const histk::SampleSetGroup gq = histk::SampleSetGroup::Draw(
          other->oracle(), params.verify_r, params.verify_m, rng);
      Time("core.closeness_decide_ms", false, [&] {
        const std::vector<histk::Interval> parts = histk::CommonRefinement(
            *report.closeness->candidate_p, *report.closeness->candidate_q);
        (void)histk::DecideCloseness(parts, gp, gq, config);
      });
    }
  }

  void TimePieceCost(const histk::GreedyEstimator& est) {
    histk::Rng rng(12345);
    std::vector<histk::Interval> probes;
    for (int i = 0; i < kPieceCostProbes; ++i) {
      int64_t a = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(est.n())));
      int64_t b = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(est.n())));
      if (a > b) std::swap(a, b);
      probes.emplace_back(a, b);
    }
    double sink = 0.0;
    const int64_t t0 = NowNs();
    for (const histk::Interval& I : probes) sink += est.PieceCost(I);
    const int64_t ns = NowNs() - t0;
    Add("stats.piece_cost_ns", static_cast<double>(ns) / kPieceCostProbes);
    if (sink == 0.12345) std::fprintf(stderr, " ");  // keeps the loop live
  }

  static bool SameTiling(const histk::TilingHistogram& a,
                         const histk::TilingHistogram& b) {
    if (a.k() != b.k() || a.values() != b.values()) return false;
    for (int64_t j = 0; j < a.k(); ++j) {
      const histk::Interval& x = a.pieces()[static_cast<size_t>(j)];
      const histk::Interval& y = b.pieces()[static_cast<size_t>(j)];
      if (x.lo != y.lo || x.hi != y.hi) return false;
    }
    return true;
  }

  histk::SessionGovernor governor_;
  histk::serve::SynopsisCache cache_;
  histk::serve::DatasetStore store_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> covered_;
  std::vector<std::string> mismatches_;
  std::vector<std::function<void()>> deferred_;  ///< ingest attribution
  int64_t inside_ns_ = 0;
};

int Main(int argc, char** argv) {
  double seconds = 10;
  std::string out_path = "trace.json";
  std::vector<int64_t> counts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (flag == "--out") {
      out_path = argv[i + 1];
    } else if (flag == "--counts") {
      std::stringstream list(argv[i + 1]);
      std::string item;
      while (std::getline(list, item, ',')) counts.push_back(std::atoll(item.c_str()));
    } else {
      std::fprintf(stderr, "histkd_bench_trace: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::vector<Dataset> datasets = LoadDatasets("datasets.tsv");
  const std::vector<Template> templates = LoadTemplates("templates.tsv", datasets);
  const Plan plan = LoadPlan("plan.txt", templates.size());
  if (counts.size() != plan.phases.size()) {
    std::fprintf(stderr, "histkd_bench_trace: --counts needs one count per phase\n");
    return 2;
  }

  Tracer tracer;
  int64_t seq = 0;
  auto replay = [&](int tmpl) {
    const Template& t = templates[static_cast<size_t>(tmpl)];
    std::string line = "{\"id\": \"" + std::to_string(seq++) + "\", ";
    line.append(t.json, 1, std::string::npos);
    tracer.Replay(line, t);
  };
  for (const std::vector<Send>& stage : plan.stages) {
    for (const Send& s : stage) replay(s.tmpl);
  }
  int64_t replayed = 0;
  for (size_t p = 0; p < plan.phases.size(); ++p) {
    const Phase& phase = plan.phases[p];
    const int64_t stop = NowNs() + static_cast<int64_t>(seconds * phase.share * 1e9);
    for (int64_t i = 0; i < counts[p] && NowNs() < stop; ++i, ++replayed) {
      replay(phase.schedule[static_cast<size_t>(i) % phase.schedule.size()]);
    }
  }
  for (const Send& s : plan.post) replay(s.tmpl);
  std::ofstream(out_path) << tracer.Json(replayed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
