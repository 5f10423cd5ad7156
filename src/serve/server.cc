#include "serve/server.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/json.h"
#include "histogram/ops.h"
#include "util/timer.h"

namespace histk {
namespace serve {

namespace {

using api::CacheState;
using api::RequestKind;
using api::RequestSpec;
using api::ResponseEnvelope;

/// Mirrors the report-level rule: these statuses mark an interrupted
/// session, and the envelope's degraded flag must agree with its status
/// whether or not a report is attached.
bool DegradedStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kBudgetExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

/// A learn report served from cache: byte-identical to the session that
/// populated the entry (telemetry included — wall_ms documents the
/// original learning cost; the envelope's serve_ms carries this
/// request's).
Report ReconstructLearnReport(const RequestSpec& req,
                              const CachedSynopsis& cached) {
  Report report;
  report.task = "learn";
  report.outcome = TaskOutcome::kOk;
  report.status = StatusCode::kOk;
  report.degraded = false;
  report.retries = cached.retries;
  report.telemetry = cached.telemetry;
  if (req.reduce) report.reduced = ReduceToKPieces(cached.result.tiling, req.k);
  report.learn = cached.result;
  return report;
}

/// An estimate report answered from the cached synopsis without touching
/// the oracle: the same AnswerEstimateQueries step as Engine::RunEstimate,
/// but samples_drawn is 0 and there are no phases — the session charged
/// nothing.
Status AnswerEstimateFromSynopsis(const RequestSpec& req,
                                  const CachedSynopsis& cached,
                                  const ServedDataset& ds, Report& out) {
  TilingHistogram synopsis = ReduceToKPieces(cached.result.tiling, req.k);
  Result<EstimateAnswers> answers = AnswerEstimateQueries(
      synopsis, req.quantiles, req.ranges, ds.session_truth());
  if (!answers.ok()) return answers.status();
  out.task = "estimate";
  out.outcome = TaskOutcome::kOk;
  out.status = StatusCode::kOk;
  out.degraded = false;
  out.retries = 0;
  out.telemetry.budget = req.budget;
  out.telemetry.samples_drawn = 0;
  out.telemetry.candidates_per_iter = cached.result.candidates_per_iter;
  out.telemetry.endpoints_before_thinning =
      cached.result.endpoints_before_thinning;
  out.telemetry.endpoints_after_thinning =
      cached.result.endpoints_after_thinning;
  out.estimate = std::move(*answers);
  out.reduced = std::move(synopsis);
  out.learn = cached.result;
  return Status::Ok();
}

/// Best-effort id recovery for lines that fail request validation: if the
/// line is at least well-formed JSON with a string "id", echo it so the
/// client can correlate the error. (Truly malformed lines stay id-less.)
void RecoverRequestId(const std::string& line, ResponseEnvelope& env) {
  Result<api::JsonValue> value = api::ParseJson(line);
  if (!value.ok() || value->type() != api::JsonValue::Type::kObject) return;
  const api::JsonValue* id = value->Find("id");
  if (id == nullptr || id->type() != api::JsonValue::Type::kString) return;
  env.id = id->AsString();
  env.has_id = true;
}

}  // namespace

HistkdServer::HistkdServer(const ServeOptions& options)
    : options_(options),
      governor_(options.governor),
      cache_(options.cache_entries),
      datasets_(options.max_datasets, options.kernel, options.fs_refs) {
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HistkdServer::~HistkdServer() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Status HistkdServer::RunTask(const RequestSpec& req, ResponseEnvelope& env,
                             Report& report) {
  Result<std::shared_ptr<ServedDataset>> resolved =
      datasets_.Resolve(req.dataset, req.n, req.reservoir);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<ServedDataset>& ds = *resolved;
  env.fingerprint = ds->fingerprint_hex();

  std::shared_ptr<ServedDataset> other;
  if (req.kind == RequestKind::kCloseness) {
    Result<std::shared_ptr<ServedDataset>> resolved_other =
        datasets_.Resolve(req.other, req.n, req.reservoir);
    if (!resolved_other.ok()) return resolved_other.status();
    other = *resolved_other;
    Status same_domain = api::CheckClosenessDomains(ds->n(), other->n());
    if (!same_domain.ok()) return same_domain;
  }

  Result<TaskSpec> spec = api::BuildTaskSpec(req);
  if (!spec.ok()) return spec.status();

  const std::string key = api::CanonicalSynopsisKey(req, ds->fingerprint_hex());
  if (!key.empty()) {
    if (req.kind == RequestKind::kEstimate) {
      Status s = ValidateEstimateQueries(ds->n(), req.quantiles, req.ranges);
      if (!s.ok()) return s;
    }
    std::shared_ptr<const CachedSynopsis> hit = cache_.Lookup(key);
    if (hit != nullptr) {
      // Served entirely from the synopsis — no oracle draws, no governor
      // slot. This is the "learn once, serve millions of queries" path.
      if (req.kind == RequestKind::kLearn) {
        report = ReconstructLearnReport(req, *hit);
      } else {
        Status s = AnswerEstimateFromSynopsis(req, *hit, *ds, report);
        if (!s.ok()) return s;
      }
      env.cache = CacheState::kHit;
      return Status::Ok();
    }
    env.cache = CacheState::kMiss;
  }

  const Engine* engine = &ds->engine();
  if (req.kind == RequestKind::kCompare) {
    Result<const Engine*> truth_engine = ds->TruthEngine();
    if (!truth_engine.ok()) return truth_engine.status();
    engine = *truth_engine;
  }

  std::visit([this](auto& task) { task.policy.governor = &governor_; }, *spec);
  if (req.kind == RequestKind::kCloseness) {
    std::get<ClosenessSpec>(*spec).other = &other->oracle();
  }

  Result<Report> result = engine->Run(*spec);
  if (!result.ok()) return result.status();  // typed; governor 503s land here
  report = std::move(*result);

  if (!key.empty() && !report.degraded && report.learn.has_value()) {
    cache_.Insert(key, std::make_shared<CachedSynopsis>(
                           *report.learn, report.telemetry, report.retries));
  }
  return Status::Ok();
}

void HistkdServer::Account(bool has_kind, RequestKind kind,
                           const ResponseEnvelope& env, double elapsed_ms) {
  if (has_kind) {
    const double us = elapsed_ms * 1000.0;
    latency_us_[static_cast<size_t>(kind)].Record(
        us <= 0.0 ? 0 : static_cast<uint64_t>(us));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++requests_total_;
  if (!has_kind) {
    ++no_kind_errors_;
  } else if (env.report == nullptr && env.stats_json == nullptr &&
             env.status != StatusCode::kOk) {
    if (env.status == StatusCode::kUnavailable) {
      ++rejected_;
    } else {
      ++failures_;
    }
  }
}

std::string HistkdServer::HandleLine(const std::string& line) {
  const WallTimer timer;
  ResponseEnvelope env;

  Result<RequestSpec> parsed = api::ParseRequestJson(line);
  if (!parsed.ok()) {
    RecoverRequestId(line, env);
    env.status = parsed.status().code();
    env.error = parsed.status().message();
    env.serve_ms = timer.ElapsedMillis();
    std::string response = api::WriteResponseJson(env);
    Account(/*has_kind=*/false, RequestKind::kLearn, env,
            timer.ElapsedMillis());
    return response;
  }

  const RequestSpec& req = *parsed;
  env.id = req.id;
  env.has_id = true;
  env.kind = api::RequestKindName(req.kind);

  Report report;
  std::string stats;
  switch (req.kind) {
    case RequestKind::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        shutdown_ = true;
      }
      env.status = StatusCode::kOk;
      break;
    }
    case RequestKind::kStats: {
      // Snapshot first, then account: the stats payload covers every
      // request completed before this one (counters conserve exactly).
      stats = StatsJson();
      env.stats_json = &stats;
      env.status = StatusCode::kOk;
      break;
    }
    default: {
      Status s = RunTask(req, env, report);
      if (s.ok()) {
        env.status = report.status;
        env.degraded = report.degraded;
        env.retries = report.retries;
        env.report = &report;
      } else {
        env.status = s.code();
        env.error = s.message();
        env.degraded = DegradedStatus(s.code());
        if (s.code() == StatusCode::kUnavailable) {
          env.retry_after_ms = options_.governor.retry_after_ms;
        }
      }
      break;
    }
  }

  env.serve_ms = timer.ElapsedMillis();
  std::string response = api::WriteResponseJson(env);
  Account(/*has_kind=*/true, req.kind, env, timer.ElapsedMillis());
  return response;
}

void HistkdServer::Submit(std::string line,
                          std::function<void(std::string)> done) {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (static_cast<int64_t>(queue_.size()) < options_.queue_limit) {
      queue_.push_back(Job{std::move(line), std::move(done)});
      lock.unlock();
      queue_cv_.notify_one();
      return;
    }
  }
  // Queue overflow: the same typed backpressure a governor rejection
  // carries, issued before any work. Parse only to echo id/kind.
  const WallTimer timer;
  ResponseEnvelope env;
  Result<RequestSpec> parsed = api::ParseRequestJson(line);
  bool has_kind = false;
  RequestKind kind = RequestKind::kLearn;
  if (parsed.ok()) {
    env.id = parsed->id;
    env.has_id = true;
    env.kind = api::RequestKindName(parsed->kind);
    has_kind = true;
    kind = parsed->kind;
  } else {
    RecoverRequestId(line, env);
  }
  env.status = StatusCode::kUnavailable;
  env.degraded = true;
  env.retry_after_ms = options_.governor.retry_after_ms;
  env.error = "request queue full (" + std::to_string(options_.queue_limit) +
              " lines pending); retry after " +
              std::to_string(options_.governor.retry_after_ms) + " ms";
  env.serve_ms = timer.ElapsedMillis();
  std::string response = api::WriteResponseJson(env);
  Account(has_kind, kind, env, timer.ElapsedMillis());
  done(response);
}

void HistkdServer::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && busy_workers_ == 0; });
}

void HistkdServer::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_workers_;
    }
    std::string response = HandleLine(job.line);
    if (job.done) job.done(std::move(response));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --busy_workers_;
    }
    drained_cv_.notify_all();
  }
}

bool HistkdServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return shutdown_;
}

std::string HistkdServer::StatsJson() const {
  int64_t requests_total = 0;
  int64_t no_kind_errors = 0;
  int64_t failures = 0;
  int64_t rejected = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    requests_total = requests_total_;
    no_kind_errors = no_kind_errors_;
    failures = failures_;
    rejected = rejected_;
  }
  const SynopsisCache::Counters cache = cache_.counters();
  const DatasetStore::Counters datasets = datasets_.counters();

  std::string out = "{\"histkd_stats\": 1";
  out += ", \"workers\": " + std::to_string(options_.workers);
  out += ", \"queue_limit\": " + std::to_string(options_.queue_limit);
  out += ", \"requests\": {\"total\": " + std::to_string(requests_total);
  out += ", \"no_kind_errors\": " + std::to_string(no_kind_errors);
  out += ", \"failures\": " + std::to_string(failures);
  out += ", \"rejected\": " + std::to_string(rejected) + "}";

  out += ", \"kinds\": {";
  for (size_t i = 0; i < kNumKinds; ++i) {
    const HistogramSnapshot snap = latency_us_[i].Snapshot();
    if (i > 0) out += ", ";
    api::AppendJsonString(out,
                          api::RequestKindName(static_cast<RequestKind>(i)));
    const uint64_t count = snap.TotalCount();
    out += ": {\"count\": " + std::to_string(count);
    // An empty snapshot has no quantiles; report 0 rather than crash.
    out += ", \"p50_us\": " + std::to_string(count ? snap.Quantile(0.5) : 0);
    out += ", \"p90_us\": " + std::to_string(count ? snap.Quantile(0.9) : 0);
    out += ", \"p99_us\": " + std::to_string(count ? snap.Quantile(0.99) : 0) +
           "}";
  }
  out += "}";

  out += ", \"cache\": {\"hits\": " + std::to_string(cache.hits);
  out += ", \"misses\": " + std::to_string(cache.misses);
  out += ", \"insertions\": " + std::to_string(cache.insertions);
  out += ", \"evictions\": " + std::to_string(cache.evictions);
  out += ", \"entries\": " + std::to_string(cache.entries) + "}";

  out += ", \"datasets\": {\"entries\": " + std::to_string(datasets.entries);
  out += ", \"loads\": " + std::to_string(datasets.loads);
  out += ", \"reuses\": " + std::to_string(datasets.reuses);
  out += ", \"evictions\": " + std::to_string(datasets.evictions) + "}";

  out += ", \"governor\": {\"max_sessions\": " +
         std::to_string(options_.governor.max_sessions);
  out += ", \"max_outstanding_budget\": " +
         std::to_string(options_.governor.max_outstanding_budget);
  out += ", \"retry_after_ms\": " +
         std::to_string(options_.governor.retry_after_ms);
  out += ", \"in_flight\": " + std::to_string(governor_.in_flight());
  out += ", \"outstanding_budget\": " +
         std::to_string(governor_.outstanding_budget());
  out += ", \"rejected\": " + std::to_string(governor_.rejected()) + "}";
  out += "}";
  return out;
}

}  // namespace serve
}  // namespace histk
