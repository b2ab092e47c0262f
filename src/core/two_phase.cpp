#include "core/two_phase.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace hpr::core {

namespace {

/// Serving-path metrics, shared by every assessor in the process.
struct AssessMetrics {
    obs::Counter& total;
    obs::Counter& suspicious;
    obs::Counter& assessed;
    obs::Counter& insufficient;
    obs::Histogram& phase1_seconds;
    obs::Histogram& phase2_seconds;
};

AssessMetrics& assess_metrics() {
    auto& registry = obs::default_registry();
    static AssessMetrics metrics{
        registry.counter("hpr_assessments_total", "Two-phase assessments served"),
        registry.counter("hpr_assessments_suspicious_total",
                         "Assessments that ended with verdict=suspicious"),
        registry.counter("hpr_assessments_assessed_total",
                         "Assessments that ended with verdict=assessed"),
        registry.counter("hpr_assessments_insufficient_total",
                         "Assessments that ended with verdict=insufficient-history"),
        registry.histogram("hpr_assess_phase1_seconds",
                           "Phase-1 screening latency (behavior + runs tests)"),
        registry.histogram("hpr_assess_phase2_seconds",
                           "Phase-2 trust-function latency"),
    };
    return metrics;
}

void count_verdict(Verdict verdict) {
    switch (verdict) {
        case Verdict::kSuspicious: assess_metrics().suspicious.increment(); break;
        case Verdict::kAssessed: assess_metrics().assessed.increment(); break;
        case Verdict::kInsufficientHistory:
            assess_metrics().insufficient.increment();
            break;
    }
}

/// Fill the trace record from a finished assessment (only sampled
/// assessments reach here, so the extra field copies are off the common
/// path).
void finalize_trace(obs::DecisionRecord& record, const Assessment& assessment) {
    record.verdict = to_string(assessment.verdict);
    // The record-level p̂ comes from the longest suffix the ladder actually
    // evaluated rather than a separate full-history pass: rescanning a
    // 20k-transaction history just for the trace costs more than the rest
    // of the instrumentation combined.
    if (!record.stages.empty()) record.p_hat = record.stages.back().p_hat;
    record.trust = assessment.trust;
    if (assessment.screening.sufficient) {
        record.min_margin = assessment.screening.min_margin;
    }
    if (assessment.screening.failure) {
        record.failed =
            to_evidence(*assessment.screening.failure,
                        assessment.screening.failed_suffix_length.value_or(
                            assessment.screening.failure->transactions_used));
    }
    if (assessment.runs) {
        record.runs.evaluated = true;
        record.runs.passed = assessment.runs->passed;
        record.runs.z = assessment.runs->z;
        record.runs.z_threshold = assessment.runs->z_threshold;
    }
}

}  // namespace

const char* to_string(ScreeningMode mode) noexcept {
    switch (mode) {
        case ScreeningMode::kNone: return "none";
        case ScreeningMode::kSingle: return "single";
        case ScreeningMode::kMulti: return "multi";
    }
    return "unknown";
}

const char* to_string(Verdict verdict) noexcept {
    switch (verdict) {
        case Verdict::kSuspicious: return "suspicious";
        case Verdict::kAssessed: return "assessed";
        case Verdict::kInsufficientHistory: return "insufficient-history";
    }
    return "unknown";
}

TwoPhaseAssessor::TwoPhaseAssessor(TwoPhaseConfig config,
                                   std::shared_ptr<const repsys::TrustFunction> trust,
                                   std::shared_ptr<stats::Calibrator> calibrator)
    : config_(config),
      trust_(std::move(trust)),
      multi_(config.test, calibrator ? calibrator : make_calibrator(config.test.base)),
      collusion_(config.test, multi_.single().calibrator()),
      runs_(config.runs) {
    if (!trust_) {
        throw std::invalid_argument("TwoPhaseAssessor: trust function must not be null");
    }
}

const std::shared_ptr<stats::Calibrator>& TwoPhaseAssessor::calibrator() const noexcept {
    return multi_.single().calibrator();
}

MultiTestResult TwoPhaseAssessor::screen(
    std::span<const repsys::Feedback> feedbacks) const {
    switch (config_.mode) {
        case ScreeningMode::kNone: {
            MultiTestResult trivial;
            trivial.passed = true;
            trivial.sufficient = false;
            return trivial;
        }
        case ScreeningMode::kSingle: {
            const BehaviorTestResult single =
                config_.collusion_resilient
                    ? collusion_.test_single(feedbacks)
                    : multi_.single().test(feedbacks);
            if (auto* trace = obs::TraceContext::current()) {
                trace->record()->stages.push_back(
                    to_evidence(single, feedbacks.size()));
            }
            MultiTestResult wrapped;
            wrapped.passed = single.passed;
            wrapped.sufficient = single.sufficient;
            wrapped.stages_run = single.sufficient ? 1 : 0;
            wrapped.min_margin = single.sufficient ? single.margin() : 0.0;
            if (!single.passed) {
                wrapped.failed_suffix_length = single.transactions_used;
                wrapped.failure = single;
            }
            if (config_.test.collect_details && single.sufficient) {
                wrapped.details.push_back(single);
            }
            return wrapped;
        }
        case ScreeningMode::kMulti:
            return config_.collusion_resilient ? collusion_.test_multi(feedbacks)
                                               : multi_.test(feedbacks);
    }
    throw std::logic_error("TwoPhaseAssessor::screen: unknown screening mode");
}

Assessment TwoPhaseAssessor::assess(std::span<const repsys::Feedback> feedbacks) const {
    AssessMetrics& metrics = assess_metrics();
    metrics.total.increment();
    obs::TraceContext trace{obs::default_tracer(),
                            feedbacks.empty() ? 0 : feedbacks.front().server,
                            "two_phase"};
    if (obs::DecisionRecord* record = trace.record()) {
        record->mode = to_string(config_.mode);
        record->collusion_resilient = config_.collusion_resilient;
        record->window_size = config_.test.base.window_size;
        record->history_length = feedbacks.size();
    }
    Assessment assessment;
    {
        obs::ScopedTimer phase1{metrics.phase1_seconds};
        {
            obs::TraceSpan span{"phase1/screen"};
            assessment.screening = screen(feedbacks);
        }
        if (assessment.screening.passed && config_.require_runs_test &&
            config_.mode != ScreeningMode::kNone) {
            obs::TraceSpan span{"phase1/runs"};
            if (config_.collusion_resilient) {
                const auto reordered = reorder_by_issuer(feedbacks);
                assessment.runs =
                    runs_.test(std::span<const repsys::Feedback>{reordered});
            } else {
                assessment.runs = runs_.test(feedbacks);
            }
        }
    }
    if (!assessment.screening.passed || (assessment.runs && !assessment.runs->passed)) {
        // Fig. 2: "Alert ('Destination peer is suspicious'); Abort".
        assessment.verdict = Verdict::kSuspicious;
        count_verdict(assessment.verdict);
        if (obs::DecisionRecord* record = trace.record()) {
            finalize_trace(*record, assessment);
        }
        return assessment;
    }
    {
        obs::ScopedTimer phase2{metrics.phase2_seconds};
        obs::TraceSpan span{"phase2/trust"};
        assessment.trust = trust_->evaluate(feedbacks);
    }
    if (config_.mode == ScreeningMode::kNone || assessment.screening.sufficient) {
        assessment.verdict = Verdict::kAssessed;
    } else {
        assessment.verdict = Verdict::kInsufficientHistory;
    }
    count_verdict(assessment.verdict);
    if (obs::DecisionRecord* record = trace.record()) {
        finalize_trace(*record, assessment);
    }
    return assessment;
}

Assessment TwoPhaseAssessor::assess(const repsys::TransactionHistory& history) const {
    return assess(history.view());
}

}  // namespace hpr::core
