#include "engine/engine.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "baseline/classic_histograms.h"
#include "baseline/voptimal_dp.h"
#include "dist/quantiles.h"
#include "histogram/ops.h"
#include "sample/sample_set.h"
#include "stats/bounds.h"
#include "stats/estimators.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace histk {

namespace {

/// One sample set under the session's draw policy: the sequential path
/// (threads = 0, rng-identical to the legacy free functions) or the sharded
/// path (threads >= 1, identical at any worker count). Both ride the fused
/// draw→count pipeline — no session ever materializes a draw vector — and
/// BudgetedSampler meters the batch whole before the first sample exists.
SampleSet DrawSessionSet(const BudgetedSampler& bs, int64_t m, Rng& rng, int threads) {
  if (threads <= 0) return SampleSet::Draw(bs, m, rng);
  return SampleSet::DrawSharded(bs, m, rng, threads);
}

SampleSetGroup DrawSessionGroup(const BudgetedSampler& bs, int64_t r, int64_t m,
                                Rng& rng, int threads) {
  if (threads <= 0) return SampleSetGroup::Draw(bs, r, m, rng);
  return SampleSetGroup::DrawSharded(bs, r, m, rng, threads);
}

/// Best-so-far state a hardened learn session snapshots as it goes, so an
/// interruption can degrade to a coarse answer instead of nothing.
struct LearnProgress {
  /// The completed main sample (set once the main phase finishes).
  std::optional<SampleSet> main;
};

/// Algorithm 1 under the session: identical draw order to LearnHistogram
/// (main set of l, then r collision sets of m), with phase attribution.
/// Property-test and closeness sessions reuse it under their own phase
/// names. `progress` (armed sessions only — the copy is not free) receives
/// the best-so-far state consumed by the degraded-report path.
LearnResult LearnOnSession(const BudgetedSampler& bs, const LearnOptions& options,
                           Rng& rng, int threads,
                           const char* main_phase = "learn-main",
                           const char* collisions_phase = "learn-collisions",
                           LearnProgress* progress = nullptr) {
  const GreedyParams params = ComputeLearnParams(bs.n(), options);
  bs.BeginPhase(main_phase);
  SampleSet main = DrawSessionSet(bs, params.l, rng, threads);
  if (progress != nullptr) progress->main = main;
  bs.BeginPhase(collisions_phase);
  SampleSetGroup group = DrawSessionGroup(bs, params.r, params.m, rng, threads);
  const GreedyEstimator estimator(std::move(main), std::move(group));
  return LearnHistogramWithEstimator(estimator, options, params);
}

/// The shared unhappy-path handler: runs a task body and converts the
/// facade's internal interruption exceptions — budget, deadline, cancel,
/// exhausted retries — into typed outcomes on the report. Any other
/// exception propagates (it is a bug, not an interruption).
template <typename Body>
void RunGuarded(Report& report, Body&& body) {
  try {
    body();
  } catch (const BudgetExhaustedError&) {
    report.outcome = TaskOutcome::kBudgetExhausted;
  } catch (const DeadlineExceededError&) {
    report.outcome = TaskOutcome::kDeadlineExceeded;
  } catch (const CancelledError&) {
    report.outcome = TaskOutcome::kCancelled;
  } catch (const TransientUnavailableError&) {
    report.outcome = TaskOutcome::kUnavailable;
  }
}

/// Derives the typed status + degraded flag from the outcome the guarded
/// body (or its interruption) left on the report.
void FinalizeOutcome(Report& report) {
  report.status = TaskOutcomeStatus(report.outcome);
  report.degraded = report.status != StatusCode::kOk;
}

/// Admission control: consults the policy's governor (when one is set) and
/// returns the session's permit — inactive when ungoverned. The permit is
/// held for the duration of the Run and releases its slot on destruction.
Result<SessionGovernor::Permit> AdmitSession(const SpecCommon& common) {
  if (common.policy.governor == nullptr) return SessionGovernor::Permit();
  return common.policy.governor->Admit(common.budget);
}

void FillSessionTelemetry(Report& report, const BudgetedSampler& bs) {
  report.telemetry.budget = bs.budget();
  report.telemetry.samples_drawn = bs.samples_drawn();
  report.telemetry.phases = bs.phases();
}

void FillLearnTelemetry(Report& report, const LearnResult& result) {
  report.telemetry.candidates_per_iter = result.candidates_per_iter;
  report.telemetry.endpoints_before_thinning = result.endpoints_before_thinning;
  report.telemetry.endpoints_after_thinning = result.endpoints_after_thinning;
}

Status ValidateCommon(const SpecCommon& common) {
  if (common.draw_threads < 0) {
    return Status::InvalidArgument("draw_threads must be >= 0 (0 = sequential)");
  }
  return Status::Ok();
}

/// The learner options compare and estimate run: their synopsis knobs on
/// top of the LearnOptions defaults. Validated and run from this one value,
/// so validation sees exactly what the learner will.
LearnOptions SynopsisLearnOptions(int64_t k, double eps, double sample_scale,
                                  CandidateStrategy strategy) {
  LearnOptions options;
  options.k = k;
  options.eps = eps;
  options.sample_scale = sample_scale;
  options.strategy = strategy;
  return options;
}

}  // namespace

const char* TaskOutcomeName(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kOk:
      return "ok";
    case TaskOutcome::kAccepted:
      return "accepted";
    case TaskOutcome::kRejected:
      return "rejected";
    case TaskOutcome::kBudgetExhausted:
      return "budget-exhausted";
    case TaskOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case TaskOutcome::kCancelled:
      return "cancelled";
    case TaskOutcome::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

StatusCode TaskOutcomeStatus(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kOk:
    case TaskOutcome::kAccepted:
    case TaskOutcome::kRejected:
      return StatusCode::kOk;
    case TaskOutcome::kBudgetExhausted:
      return StatusCode::kBudgetExhausted;
    case TaskOutcome::kDeadlineExceeded:
      return StatusCode::kDeadlineExceeded;
    case TaskOutcome::kCancelled:
      return StatusCode::kCancelled;
    case TaskOutcome::kUnavailable:
      return StatusCode::kUnavailable;
  }
  return StatusCode::kInternal;
}

Engine::Engine(const Sampler& oracle) : oracle_(oracle) {}

Engine::Engine(const Sampler& oracle, Distribution truth)
    : oracle_(oracle), truth_(std::move(truth)) {}

const Distribution& Engine::truth() const {
  HISTK_CHECK_MSG(truth_.has_value(), "Engine::truth() on a session without one");
  return *truth_;
}

Result<Report> Engine::Run(const TaskSpec& spec) const {
  return std::visit(
      [this](const auto& task) -> Result<Report> {
        using T = std::decay_t<decltype(task)>;
        if constexpr (std::is_same_v<T, LearnSpec>) return RunLearn(task);
        else if constexpr (std::is_same_v<T, TestSpec>) return RunTest(task);
        else if constexpr (std::is_same_v<T, CompareSpec>) return RunCompare(task);
        else if constexpr (std::is_same_v<T, PropertyTestSpec>) return RunPropertyTest(task);
        else if constexpr (std::is_same_v<T, ClosenessSpec>) return RunCloseness(task);
        else return RunEstimate(task);
      },
      spec);
}

Result<Report> Engine::RunLearn(const LearnSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  if (Status s = ValidateLearnOptions(oracle_.n(), spec.options); !s.ok()) return s;
  if (spec.reduce_to < 0) {
    return Status::InvalidArgument("reduce_to must be >= 0 (0 = off)");
  }

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "learn";
  const BudgetedSampler bs(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  LearnProgress progress;
  RunGuarded(report, [&] {
    LearnResult result =
        LearnOnSession(bs, spec.options, rng, spec.draw_threads, "learn-main",
                       "learn-collisions",
                       spec.policy.armed() ? &progress : nullptr);
    FillLearnTelemetry(report, result);
    if (spec.reduce_to > 0) {
      report.reduced = ReduceToKPieces(result.tiling, spec.reduce_to);
    }
    report.learn = std::move(result);
    report.outcome = TaskOutcome::kOk;
  });
  FinalizeOutcome(report);
  if (report.degraded && progress.main.has_value() && progress.main->m() > 0) {
    // Best-so-far degradation: the interruption hit after the main sample
    // completed, so an equi-depth fit of the samples in hand is a coarse
    // but data-backed tiling — strictly better than returning nothing.
    report.reduced = EquiDepthFromSamples(spec.options.k, *progress.main);
  }
  report.retries = bs.retries();
  FillSessionTelemetry(report, bs);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

Result<Report> Engine::RunTest(const TestSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  if (Status s = ValidateTestConfig(oracle_.n(), spec.config); !s.ok()) return s;

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "test";
  const BudgetedSampler bs(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  RunGuarded(report, [&] {
    const TestConfig& config = spec.config;
    const TesterParams params = ComputeTesterParams(bs.n(), config);
    bs.BeginPhase("test-draw");
    const SampleSetGroup group =
        DrawSessionGroup(bs, params.r, params.m, rng, spec.draw_threads);
    TestOutcome outcome = TestKHistogramOnGroup(group, config);
    outcome.params = params;
    report.outcome = outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
    report.test = std::move(outcome);
  });
  // An interrupted test is inconclusive: no accept/reject payload, just the
  // typed outcome + degraded flag (RunGuarded left report.test unset).
  FinalizeOutcome(report);
  report.retries = bs.retries();
  FillSessionTelemetry(report, bs);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

Result<Report> Engine::RunCompare(const CompareSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  const LearnOptions options =
      SynopsisLearnOptions(spec.k, spec.eps, spec.sample_scale, spec.strategy);
  if (Status s = ValidateLearnOptions(oracle_.n(), options); !s.ok()) return s;
  if (!truth_) {
    return Status::InvalidArgument(
        "compare task needs a session ground-truth distribution");
  }
  if (truth_->n() != oracle_.n()) {
    return Status::InvalidArgument("session truth domain differs from the oracle's");
  }
  if (spec.max_dp_domain < 1) {
    return Status::InvalidArgument("max_dp_domain must be >= 1");
  }

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "compare";
  const BudgetedSampler bs(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  RunGuarded(report, [&] {
    LearnResult result = LearnOnSession(bs, options, rng, spec.draw_threads);
    FillLearnTelemetry(report, result);
    TilingHistogram reduced = ReduceToKPieces(result.tiling, spec.k);

    auto row = [&](const char* method, const TilingHistogram& h, int64_t samples) {
      report.compare.push_back(
          CompareRow{method, h.k(), h.L2SquaredErrorTo(*truth_), samples});
    };
    row("paper", reduced, result.total_samples);
    row("paper-raw", result.tiling, result.total_samples);

    // Classic sampling histograms from a fresh sample of the same size the
    // learner consumed — the E7 apples-to-apples protocol.
    bs.BeginPhase("baselines");
    const SampleSet baseline_sample =
        DrawSessionSet(bs, result.total_samples, rng, spec.draw_threads);
    row("equi-width", EquiWidthFromSamples(spec.k, baseline_sample),
        baseline_sample.m());
    row("equi-depth", EquiDepthFromSamples(spec.k, baseline_sample),
        baseline_sample.m());
    row("compressed", CompressedFromSamples(spec.k, baseline_sample),
        baseline_sample.m());

    // The exact optimum the paper's guarantee is stated against. Reads the
    // full pmf (zero oracle draws) and runs the O(n^2 k) DP, so it is gated
    // on the truth's domain size.
    if (spec.include_voptimal && truth_->n() <= spec.max_dp_domain) {
      const VOptimalResult opt = VOptimalHistogram(*truth_, spec.k);
      row("v-optimal", opt.histogram, 0);
    }

    report.reduced = std::move(reduced);
    report.learn = std::move(result);
    report.outcome = TaskOutcome::kOk;
  });
  FinalizeOutcome(report);
  if (report.degraded) {
    // Keep the interrupted-outcome contract uniform — telemetry only. Rows
    // pushed before the baselines phase was cut short would otherwise read
    // as a complete (but baseline-less) comparison.
    report.compare.clear();
  }
  report.retries = bs.retries();
  FillSessionTelemetry(report, bs);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

Status ValidateEstimateQueries(int64_t n,
                               const std::vector<double>& quantile_levels,
                               const std::vector<Interval>& ranges) {
  for (double q : quantile_levels) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::InvalidArgument("quantile levels must be in [0, 1]");
    }
  }
  const Interval domain = Interval::Full(n);
  for (const Interval& range : ranges) {
    if (range.empty() || !domain.Contains(range)) {
      return Status::InvalidArgument("ranges must be non-empty and within [0, n)");
    }
  }
  return Status::Ok();
}

Result<EstimateAnswers> AnswerEstimateQueries(
    const TilingHistogram& synopsis, const std::vector<double>& quantile_levels,
    const std::vector<Interval>& ranges, const Distribution* truth) {
  EstimateAnswers answers;
  if (!quantile_levels.empty()) {
    // Quantiles need a proper distribution; the synopsis can carry zero
    // mass only if the learner saw no samples at all.
    double mass = 0.0;
    for (int64_t j = 0; j < synopsis.k(); ++j) {
      mass += std::max(synopsis.values()[static_cast<size_t>(j)], 0.0) *
              static_cast<double>(synopsis.pieces()[static_cast<size_t>(j)].length());
    }
    if (mass <= 0.0) {
      return Status::Internal("learned synopsis has zero mass; cannot answer quantiles");
    }
    const Distribution synopsis_dist = synopsis.ToDistribution();
    for (double q : quantile_levels) {
      answers.quantiles.push_back(
          EstimateAnswers::QuantileAnswer{q, Quantile(synopsis_dist, q)});
    }
  }
  for (const Interval& range : ranges) {
    EstimateAnswers::SelectivityAnswer answer;
    answer.range = range;
    answer.estimate = synopsis.Mass(range);
    if (truth != nullptr) answer.truth = truth->Weight(range);
    answers.selectivity.push_back(answer);
  }
  return answers;
}

Result<Report> Engine::RunEstimate(const EstimateSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  const LearnOptions options = SynopsisLearnOptions(
      spec.k, spec.eps, spec.sample_scale, CandidateStrategy::kSampleEndpoints);
  if (Status s = ValidateLearnOptions(oracle_.n(), options); !s.ok()) return s;
  if (Status s = ValidateEstimateQueries(oracle_.n(), spec.quantile_levels,
                                         spec.ranges);
      !s.ok()) {
    return s;
  }
  if (truth_ && truth_->n() != oracle_.n()) {
    return Status::InvalidArgument("session truth domain differs from the oracle's");
  }

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "estimate";
  const BudgetedSampler bs(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  Status failure = Status::Ok();
  RunGuarded(report, [&] {
    LearnResult result = LearnOnSession(bs, options, rng, spec.draw_threads);
    FillLearnTelemetry(report, result);
    TilingHistogram synopsis = ReduceToKPieces(result.tiling, spec.k);
    Result<EstimateAnswers> answers =
        AnswerEstimateQueries(synopsis, spec.quantile_levels, spec.ranges,
                              truth_ ? &*truth_ : nullptr);
    if (!answers.ok()) {
      failure = answers.status();
      return;
    }
    report.estimate = std::move(*answers);
    report.reduced = std::move(synopsis);
    report.learn = std::move(result);
    report.outcome = TaskOutcome::kOk;
  });
  if (!failure.ok()) return failure;
  FinalizeOutcome(report);
  report.retries = bs.retries();
  FillSessionTelemetry(report, bs);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

Result<Report> Engine::RunPropertyTest(const PropertyTestSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  if (Status s = ValidatePropertyTestConfig(oracle_.n(), spec.config); !s.ok()) {
    return s;
  }

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "property-test";
  const BudgetedSampler bs(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  RunGuarded(report, [&] {
    const PropertyTestConfig& config = spec.config;
    const PropertyTesterParams params = ComputePropertyTestParams(bs.n(), config);
    // Phase 1: candidate fit — identical draw order to the free function
    // (GreedyEstimator::Draw), with property-test phase attribution.
    const LearnResult learned =
        LearnOnSession(bs, PropertyTestLearnOptions(config), rng, spec.draw_threads,
                       "ptest-learn-main", "ptest-learn-collisions");
    TilingHistogram candidate = ReduceToKPieces(learned.tiling, config.k);
    const VerificationPlan plan = BuildVerificationPlan(candidate, config);
    // Phase 2: fresh verification group.
    bs.BeginPhase("ptest-verify");
    const SampleSetGroup group =
        DrawSessionGroup(bs, params.verify_r, params.verify_m, rng, spec.draw_threads);
    PropertyTestOutcome outcome = DecidePropertyTest(plan, group);
    outcome.params = params;
    outcome.total_samples = bs.samples_drawn();
    outcome.candidate = std::move(candidate);
    report.outcome =
        outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
    report.property_test = std::move(outcome);
  });
  FinalizeOutcome(report);
  report.retries = bs.retries();
  FillSessionTelemetry(report, bs);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

Result<Report> Engine::RunCloseness(const ClosenessSpec& spec) const {
  if (Status s = ValidateCommon(spec); !s.ok()) return s;
  if (spec.other == nullptr) {
    return Status::InvalidArgument("closeness task needs a second oracle");
  }
  if (spec.other->n() != oracle_.n()) {
    return Status::InvalidArgument(
        "the second closeness oracle's domain differs from the session's");
  }
  if (Status s = ValidateClosenessConfig(oracle_.n(), spec.config); !s.ok()) {
    return s;
  }

  Result<SessionGovernor::Permit> permit = AdmitSession(spec);
  if (!permit.ok()) return permit.status();

  const WallTimer timer;
  Report report;
  report.task = "closeness";
  // Both oracles draw against the one budget: q's sampler gets whatever p's
  // left. All p draws happen before any q draw (the free-function order),
  // so the handoff point is well defined.
  const BudgetedSampler bs_p(oracle_, spec.budget, &spec.policy);
  Rng rng(spec.seed);
  bool q_phase_reached = false;
  RunGuarded(report, [&] {
    const ClosenessConfig& config = spec.config;
    const ClosenessParams params = ComputeClosenessTestParams(bs_p.n(), config);

    const LearnResult learned_p = LearnOnSession(
        bs_p, ClosenessLearnOptions(config, config.k_p), rng, spec.draw_threads,
        "close-learn-p-main", "close-learn-p-collisions");
    TilingHistogram candidate_p = ReduceToKPieces(learned_p.tiling, config.k_p);
    bs_p.BeginPhase("close-verify-p");
    const SampleSetGroup group_p =
        DrawSessionGroup(bs_p, params.verify_r, params.verify_m, rng, spec.draw_threads);

    const BudgetedSampler bs_q(
        *spec.other, bs_p.unlimited() ? BudgetedSampler::kUnlimited : bs_p.remaining(),
        &spec.policy);
    q_phase_reached = true;
    RunGuarded(report, [&] {
      const LearnResult learned_q = LearnOnSession(
          bs_q, ClosenessLearnOptions(config, config.k_q), rng, spec.draw_threads,
          "close-learn-q-main", "close-learn-q-collisions");
      TilingHistogram candidate_q = ReduceToKPieces(learned_q.tiling, config.k_q);
      bs_q.BeginPhase("close-verify-q");
      const SampleSetGroup group_q =
          DrawSessionGroup(bs_q, params.verify_r, params.verify_m, rng,
                           spec.draw_threads);

      const std::vector<Interval> parts = CommonRefinement(candidate_p, candidate_q);
      ClosenessOutcome outcome = DecideCloseness(parts, group_p, group_q, config);
      outcome.params = params;
      outcome.total_samples = bs_p.samples_drawn() + bs_q.samples_drawn();
      outcome.candidate_p = std::move(candidate_p);
      outcome.candidate_q = std::move(candidate_q);
      report.outcome =
          outcome.accepted ? TaskOutcome::kAccepted : TaskOutcome::kRejected;
      report.closeness = std::move(outcome);
    });
    // The inner guard swallowed any q-phase interruption, so both meters'
    // telemetry is always merged here.
    FillSessionTelemetry(report, bs_p);
    report.telemetry.samples_drawn += bs_q.samples_drawn();
    for (const BudgetedSampler::PhaseDraws& phase : bs_q.phases()) {
      report.telemetry.phases.push_back(phase);
    }
    report.retries = bs_p.retries() + bs_q.retries();
  });
  if (!q_phase_reached) {
    // Interrupted during the p phase: only p's meter exists.
    FillSessionTelemetry(report, bs_p);
    report.retries = bs_p.retries();
  }
  FinalizeOutcome(report);
  report.telemetry.wall_ms = timer.ElapsedMillis();
  return report;
}

// ------------------------------------------------------------- JSON output

namespace {

void AppendTilingJson(std::string& out, const TilingHistogram& h) {
  AppendIntMember(out, "{\"n\": ", h.n());
  AppendIntMember(out, ", \"k\": ", h.k());
  out += ", \"right_ends\": [";
  for (int64_t j = 0; j < h.k(); ++j) {
    if (j > 0) out += ", ";
    AppendJsonInt(out, h.pieces()[static_cast<size_t>(j)].hi);
  }
  out += "], \"values\": [";
  for (int64_t j = 0; j < h.k(); ++j) {
    if (j > 0) out += ", ";
    AppendJsonDouble(out, h.values()[static_cast<size_t>(j)]);
  }
  out += "]}";
}

}  // namespace

void AppendReportJson(std::string& out, const Report& report) {
  AppendStringMember(out, "{\"histk_report\": 1, \"task\": ", report.task);
  AppendStringMember(out, ", \"outcome\": ", TaskOutcomeName(report.outcome));
  AppendStringMember(out, ", \"status\": ", StatusCodeName(report.status));
  AppendBoolMember(out, ", \"degraded\": ", report.degraded);
  AppendIntMember(out, ", \"retries\": ", report.retries);

  const ReportTelemetry& t = report.telemetry;
  AppendIntMember(out, ", \"telemetry\": {\"budget\": ", t.budget);
  AppendIntMember(out, ", \"samples_drawn\": ", t.samples_drawn);
  AppendDoubleMember(out, ", \"wall_ms\": ", t.wall_ms);
  AppendIntMember(out, ", \"candidates_per_iter\": ", t.candidates_per_iter);
  AppendIntMember(out, ", \"endpoints_before_thinning\": ",
                  t.endpoints_before_thinning);
  AppendIntMember(out, ", \"endpoints_after_thinning\": ", t.endpoints_after_thinning);
  out += ", \"phases\": [";
  for (size_t i = 0; i < t.phases.size(); ++i) {
    if (i > 0) out += ", ";
    AppendStringMember(out, "{\"phase\": ", t.phases[i].phase);
    AppendIntMember(out, ", \"samples\": ", t.phases[i].samples);
    out += "}";
  }
  out += "]}";

  if (report.learn) {
    const LearnResult& r = *report.learn;
    AppendIntMember(out, ", \"learn\": {\"params\": {\"l\": ", r.params.l);
    AppendIntMember(out, ", \"r\": ", r.params.r);
    AppendIntMember(out, ", \"m\": ", r.params.m);
    AppendIntMember(out, ", \"iterations\": ", r.params.iterations);
    AppendIntMember(out, "}, \"total_samples\": ", r.total_samples);
    AppendDoubleMember(out, ", \"estimated_cost\": ", r.estimated_cost);
    AppendIntMember(out, ", \"priority_entries\": ", r.priority.size());
    out += ", \"tiling\": ";
    AppendTilingJson(out, r.tiling);
    out += "}";
  }
  if (report.reduced) {
    out += ", \"reduced\": ";
    AppendTilingJson(out, *report.reduced);
  }
  if (report.test) {
    const TestOutcome& t2 = *report.test;
    AppendBoolMember(out, ", \"test\": {\"accepted\": ", t2.accepted);
    AppendIntMember(out, ", \"params\": {\"r\": ", t2.params.r);
    AppendIntMember(out, ", \"m\": ", t2.params.m);
    AppendIntMember(out, "}, \"total_samples\": ", t2.total_samples);
    out += ", \"flat_partition\": [";
    for (size_t i = 0; i < t2.flat_partition.size(); ++i) {
      if (i > 0) out += ", ";
      AppendIntMember(out, "[", t2.flat_partition[i].lo);
      AppendIntMember(out, ", ", t2.flat_partition[i].hi);
      out += "]";
    }
    out += "]}";
  }
  if (!report.compare.empty()) {
    out += ", \"compare\": [";
    for (size_t i = 0; i < report.compare.size(); ++i) {
      if (i > 0) out += ", ";
      const CompareRow& row = report.compare[i];
      AppendStringMember(out, "{\"method\": ", row.method);
      AppendIntMember(out, ", \"pieces\": ", row.pieces);
      AppendDoubleMember(out, ", \"sse\": ", row.sse);
      AppendIntMember(out, ", \"samples\": ", row.samples);
      out += "}";
    }
    out += "]";
  }
  if (report.property_test) {
    const PropertyTestOutcome& p = *report.property_test;
    AppendBoolMember(out, ", \"property_test\": {\"accepted\": ", p.accepted);
    AppendIntMember(out, ", \"params\": {\"learn\": {\"l\": ", p.params.learn.l);
    AppendIntMember(out, ", \"r\": ", p.params.learn.r);
    AppendIntMember(out, ", \"m\": ", p.params.learn.m);
    AppendIntMember(out, ", \"iterations\": ", p.params.learn.iterations);
    AppendIntMember(out, "}, \"verify_r\": ", p.params.verify_r);
    AppendIntMember(out, ", \"verify_m\": ", p.params.verify_m);
    AppendIntMember(out, "}, \"total_samples\": ", p.total_samples);
    AppendIntMember(out, ", \"refinement_parts\": ", p.refinement_parts);
    AppendIntMember(out, ", \"fitted_pieces\": ", p.fitted_pieces);
    AppendDoubleMember(out, ", \"fit_stat\": ", p.fit_stat);
    AppendDoubleMember(out, ", \"fit_threshold\": ", p.fit_threshold);
    AppendIntMember(out, ", \"exception_parts\": ", p.exception_parts);
    AppendDoubleMember(out, ", \"exception_mass\": ", p.exception_mass);
    AppendDoubleMember(out, ", \"exception_mass_threshold\": ",
                       p.exception_mass_threshold);
    AppendDoubleMember(out, ", \"collision_stat\": ", p.collision_stat);
    AppendDoubleMember(out, ", \"collision_threshold\": ", p.collision_threshold);
    AppendDoubleMember(out, ", \"candidate_l1\": ", p.candidate_l1);
    if (p.candidate) {
      out += ", \"candidate\": ";
      AppendTilingJson(out, *p.candidate);
    }
    out += "}";
  }
  if (report.closeness) {
    const ClosenessOutcome& c = *report.closeness;
    AppendBoolMember(out, ", \"closeness\": {\"accepted\": ", c.accepted);
    AppendIntMember(out, ", \"params\": {\"verify_r\": ", c.params.verify_r);
    AppendIntMember(out, ", \"verify_m\": ", c.params.verify_m);
    AppendIntMember(out, "}, \"total_samples\": ", c.total_samples);
    AppendIntMember(out, ", \"refinement_parts\": ", c.refinement_parts);
    AppendDoubleMember(out, ", \"statistic\": ", c.statistic);
    AppendDoubleMember(out, ", \"threshold\": ", c.threshold);
    if (c.candidate_p) {
      out += ", \"candidate_p\": ";
      AppendTilingJson(out, *c.candidate_p);
    }
    if (c.candidate_q) {
      out += ", \"candidate_q\": ";
      AppendTilingJson(out, *c.candidate_q);
    }
    out += "}";
  }
  if (report.estimate) {
    const EstimateAnswers& e = *report.estimate;
    out += ", \"estimate\": {\"quantiles\": [";
    for (size_t i = 0; i < e.quantiles.size(); ++i) {
      if (i > 0) out += ", ";
      AppendDoubleMember(out, "{\"q\": ", e.quantiles[i].q);
      AppendIntMember(out, ", \"value\": ", e.quantiles[i].value);
      out += "}";
    }
    out += "], \"selectivity\": [";
    for (size_t i = 0; i < e.selectivity.size(); ++i) {
      if (i > 0) out += ", ";
      const auto& sel = e.selectivity[i];
      AppendIntMember(out, "{\"lo\": ", sel.range.lo);
      AppendIntMember(out, ", \"hi\": ", sel.range.hi);
      AppendDoubleMember(out, ", \"estimate\": ", sel.estimate);
      out += ", \"truth\": ";
      if (sel.truth) {
        AppendJsonDouble(out, *sel.truth);
      } else {
        out += "null";
      }
      out += "}";
    }
    out += "]}";
  }
  out += "}";
}

}  // namespace histk
