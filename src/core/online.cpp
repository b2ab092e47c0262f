#include "core/online.h"

#include <stdexcept>

#include "core/multi_test.h"
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
              calibrator ? std::move(calibrator) : make_calibrator(config.test.base)) {
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
    if (obs::DecisionRecord* record = trace.record()) {
        record->mode = "multi";
        record->window_size = config_.test.base.window_size;
        record->history_length = transactions_;
        record->p_hat = p_hat();
    }

    // The §3.3 suffix ladder over the retained windows, shortest suffix
    // first.  With a retention horizon the deepest stage is capped at
    // max_windows, so this — the whole per-window cost — is bounded
    // regardless of stream age.
    const MultiTestResult result =
        run_ladder(single_, config_.test, retained_, 0,
                   [this](std::size_t back) { return good_count_from_newest(back); });

    ++evaluations_;
    screener_metrics().evaluations.increment();
    last_evaluation_passed_ = result.passed;
    if (result.passed) {
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
            if (result.passed) {
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
        if (result.sufficient) record->min_margin = result.min_margin;
        if (result.failure) {
            record->failed = to_evidence(*result.failure, *result.failed_suffix_length);
        }
        if (state_ != before) {
            record->transition =
                state_ == StreamState::kSuspicious ? "flagged" : "recovered";
        }
    }
}

}  // namespace hpr::core
