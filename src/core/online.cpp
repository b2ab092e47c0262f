#include "core/online.h"

#include <limits>
#include <stdexcept>

#include "core/scratch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hpr::core {

namespace {

/// Streaming-screening metrics, shared by every screener in the process.
struct ScreenerMetrics {
    obs::Counter& evaluations;
    obs::Counter& flagged;
    obs::Counter& recovered;
};

ScreenerMetrics& screener_metrics() {
    auto& registry = obs::default_registry();
    static ScreenerMetrics metrics{
        registry.counter("hpr_screener_evaluations_total",
                         "Suffix-ladder evaluations across all online screeners"),
        registry.counter("hpr_screener_flagged_total",
                         "Streams flagged suspicious (after patience failures)"),
        registry.counter("hpr_screener_recovered_total",
                         "Flagged streams cleared (after recovery passes)"),
    };
    return metrics;
}

}  // namespace

const char* to_string(StreamState state) noexcept {
    switch (state) {
        case StreamState::kInsufficient: return "insufficient";
        case StreamState::kClear: return "clear";
        case StreamState::kSuspicious: return "suspicious";
    }
    return "unknown";
}

OnlineScreener::OnlineScreener(OnlineScreenerConfig config,
                               std::shared_ptr<stats::Calibrator> calibrator)
    : config_(config),
      single_(config.test.base,
              calibrator ? std::move(calibrator) : make_calibrator(config.test.base)),
      step_windows_(config.test.effective_step() / config.test.base.window_size) {
    if (config_.patience == 0 || config_.recovery == 0) {
        throw std::invalid_argument(
            "OnlineScreener: patience and recovery must be positive");
    }
    if (config_.max_windows != 0 &&
        config_.max_windows < config_.test.base.min_windows) {
        throw std::invalid_argument(
            "OnlineScreener: max_windows must be 0 (unbounded) or >= min_windows");
    }
    // The ring never regrows: a bounded screener's memory footprint is
    // fixed at construction (memory_bytes() relies on this).
    if (config_.max_windows != 0) window_good_counts_.reserve(config_.max_windows);
}

double OnlineScreener::p_hat() const noexcept {
    if (retained_ == 0) return 0.0;
    return static_cast<double>(retained_good_) /
           static_cast<double>(retained_ * config_.test.base.window_size);
}

void OnlineScreener::observe(bool good) {
    ++transactions_;
    if (good) ++current_window_good_;
    if (++current_window_fill_ < config_.test.base.window_size) return;

    const std::uint32_t completed = current_window_good_;
    current_window_good_ = 0;
    current_window_fill_ = 0;
    ++windows_completed_;
    if (config_.max_windows != 0 && retained_ == config_.max_windows) {
        // Horizon full: the oldest window falls off the ring.
        retained_good_ -= window_good_counts_[ring_head_];
        window_good_counts_[ring_head_] = completed;
        ring_head_ = (ring_head_ + 1) % config_.max_windows;
    } else {
        window_good_counts_.push_back(completed);
        ++retained_;
    }
    retained_good_ += completed;
    if (retained_ >= config_.test.base.min_windows) evaluate();
}

void OnlineScreener::evaluate() {
    obs::TraceContext trace{obs::default_tracer(), entity_, "online_screener"};
    const std::uint32_t m = config_.test.base.window_size;
    if (obs::DecisionRecord* record = trace.record()) {
        record->mode = "multi";
        record->window_size = m;
        record->history_length = transactions_;
        record->p_hat = p_hat();
    }

    // The §3.3 suffix ladder over the retained windows: suffixes of
    // k, k - step, k - 2*step, ... windows, newest-suffix first.  With a
    // retention horizon k is capped at max_windows, so this loop — the
    // whole per-window cost — is bounded regardless of stream age.
    const std::size_t total = retained_;
    const std::size_t min_windows = config_.test.base.min_windows;
    const std::size_t stages = (total - min_windows) / step_windows_ + 1;
    const double confidence =
        config_.test.bonferroni
            ? 1.0 - (1.0 - config_.test.base.confidence) / static_cast<double>(stages)
            : 0.0;

    bool all_passed = true;
    double min_margin = std::numeric_limits<double>::infinity();
    bool any_sufficient = false;
    // Outermost ladder on this thread — it owns the thread-local ladder
    // slot (core/scratch.h), reset per evaluation instead of reallocated.
    stats::EmpiricalDistribution& counts = assessment_scratch().ladder_counts;
    counts.reset(m);
    std::size_t added = 0;
    {
        obs::TraceSpan ladder{"phase1/ladder"};
        if (obs::DecisionRecord* record = trace.record()) record->stages.reserve(stages);
        for (std::size_t stage = 0; stage < stages; ++stage) {
            const std::size_t want = total - (stages - 1 - stage) * step_windows_;
            while (added < want) {
                counts.add(good_count_from_newest(added));
                ++added;
            }
            const BehaviorTestResult result = single_.test(counts, confidence);
            if (obs::DecisionRecord* record = trace.record()) {
                obs::StageEvidence evidence;
                evidence.suffix_length = want * m;
                evidence.windows = result.windows;
                evidence.p_hat = result.p_hat;
                evidence.distance = result.distance;
                evidence.epsilon = result.threshold;
                evidence.sufficient = result.sufficient;
                evidence.passed = result.passed;
                record->stages.push_back(evidence);
                if (!result.passed && !record->failed) record->failed = evidence;
            }
            if (result.sufficient) {
                any_sufficient = true;
                if (result.margin() < min_margin) min_margin = result.margin();
            }
            if (!result.passed) {
                all_passed = false;
                if (config_.test.stop_on_failure) break;
            }
        }
    }

    ++evaluations_;
    screener_metrics().evaluations.increment();
    last_evaluation_passed_ = all_passed;
    if (all_passed) {
        ++passing_streak_;
        failing_streak_ = 0;
    } else {
        ++failing_streak_;
        passing_streak_ = 0;
    }

    const StreamState before = state_;
    switch (state_) {
        case StreamState::kInsufficient:
            // Deliberately asymmetric (see the file comment): one passing
            // evaluation confirms the honest prior, while flagging a
            // never-judged stream still takes `patience` failures.
            if (all_passed) {
                state_ = StreamState::kClear;
            } else if (failing_streak_ >= config_.patience) {
                state_ = StreamState::kSuspicious;
            }
            // else: failing but under patience — stay insufficient.
            break;
        case StreamState::kClear:
            if (failing_streak_ >= config_.patience) state_ = StreamState::kSuspicious;
            break;
        case StreamState::kSuspicious:
            if (passing_streak_ >= config_.recovery) state_ = StreamState::kClear;
            break;
    }
    if (state_ != before) {
        if (state_ == StreamState::kSuspicious) {
            screener_metrics().flagged.increment();
        } else if (before == StreamState::kSuspicious) {
            screener_metrics().recovered.increment();
        }
    }
    if (obs::DecisionRecord* record = trace.record()) {
        record->verdict = to_string(state_);
        if (any_sufficient) record->min_margin = min_margin;
        if (state_ != before) {
            record->transition =
                state_ == StreamState::kSuspicious ? "flagged" : "recovered";
        }
    }
}

}  // namespace hpr::core
