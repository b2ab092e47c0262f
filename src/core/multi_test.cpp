#include "core/multi_test.h"

#include <limits>

namespace hpr::core {
namespace {

// test_naive's own stage count, confidence and finalize: the reference
// shares no bookkeeping with run_ladder, so a bug in one shows up as a
// disagreement with the other.

/// Number of suffix stages for a history of n transactions: suffix
/// lengths n, n-step, ... while at least min_windows complete windows
/// remain.  Returns 0 when even the full history is too short.
std::size_t stage_count(std::size_t n, std::size_t step, std::uint32_t m,
                        std::size_t min_windows) {
    const std::size_t min_len = min_windows * m;
    if (n < min_len) return 0;
    return (n - min_len) / step + 1;
}

/// Per-stage confidence implementing the family-wise (Bonferroni)
/// correction when enabled; 0 means "use the configured default".
double stage_confidence(const MultiTestConfig& config, std::size_t stages) {
    if (!config.bonferroni || stages == 0) return 0.0;
    return 1.0 - (1.0 - config.base.confidence) / static_cast<double>(stages);
}

void finalize(MultiTestResult& result) {
    if (result.stages_run == 0) {
        result.min_margin = 0.0;
        result.sufficient = false;
        result.passed = true;
    }
}

/// run_ladder over a sequence whose windows are anchored at its newest
/// end: window w covers [n - (w+1)m, n - w*m), and the n % m oldest
/// transactions lie outside every window.
template <typename T, typename IsGood>
MultiTestResult ladder_over(const BehaviorTest& single, const MultiTestConfig& config,
                            std::span<const T> seq, IsGood is_good) {
    const std::uint32_t m = config.base.window_size;
    const std::size_t n = seq.size();
    return run_ladder(single, config, n / m, n % m, [&](std::size_t w) {
        const std::size_t end = n - w * m;
        std::uint32_t good = 0;
        for (std::size_t i = end - m; i < end; ++i) {
            if (is_good(seq[i])) ++good;
        }
        return good;
    });
}

}  // namespace

obs::StageEvidence to_evidence(const BehaviorTestResult& result,
                               std::size_t suffix_length) {
    obs::StageEvidence evidence;
    evidence.suffix_length = suffix_length;
    evidence.windows = result.windows;
    evidence.p_hat = result.p_hat;
    evidence.distance = result.distance;
    evidence.epsilon = result.threshold;
    evidence.sufficient = result.sufficient;
    evidence.passed = result.passed;
    return evidence;
}

MultiTest::MultiTest(MultiTestConfig config,
                     std::shared_ptr<stats::Calibrator> calibrator)
    : config_(config), single_(config.base, std::move(calibrator)) {
    config_.step = config_.effective_step();
}

MultiTestResult MultiTest::test(std::span<const repsys::Feedback> feedbacks) const {
    return ladder_over(single_, config_, feedbacks,
                       [](const repsys::Feedback& f) { return f.good(); });
}

MultiTestResult MultiTest::test(std::span<const std::uint8_t> outcomes) const {
    return ladder_over(single_, config_, outcomes, [](std::uint8_t o) { return o != 0; });
}

template <typename Subspan>
MultiTestResult MultiTest::test_naive_impl(std::size_t n, Subspan suffix) const {
    const std::uint32_t m = config_.base.window_size;
    const std::size_t step = config_.step;
    const std::size_t stages = stage_count(n, step, m, config_.base.min_windows);

    MultiTestResult result;
    result.min_margin = std::numeric_limits<double>::infinity();
    if (stages == 0) {
        finalize(result);
        return result;
    }
    result.sufficient = true;

    obs::TraceSpan ladder{"phase1/ladder"};
    obs::TraceContext* trace = obs::TraceContext::current();
    if (trace != nullptr) trace->record()->stages.reserve(stages);

    const double confidence = stage_confidence(config_, stages);
    for (std::size_t stage = 0; stage < stages; ++stage) {
        const std::size_t suffix_len = n - (stages - 1 - stage) * step;
        const BehaviorTestResult stage_result = single_.test(
            compute_window_stats(suffix(suffix_len), m).distribution(), confidence);
        if (trace != nullptr) {
            trace->record()->stages.push_back(to_evidence(stage_result, suffix_len));
        }
        ++result.stages_run;
        if (stage_result.sufficient && stage_result.margin() < result.min_margin) {
            result.min_margin = stage_result.margin();
        }
        if (config_.collect_details) result.details.push_back(stage_result);
        if (!stage_result.passed) {
            result.passed = false;
            if (!result.failed_suffix_length) {
                result.failed_suffix_length = suffix_len;
                result.failure = stage_result;
            }
            if (config_.stop_on_failure) break;
        }
    }
    finalize(result);
    return result;
}

MultiTestResult MultiTest::test_naive(std::span<const repsys::Feedback> feedbacks) const {
    const std::size_t n = feedbacks.size();
    return test_naive_impl(n, [&](std::size_t len) {
        return feedbacks.subspan(n - len, len);
    });
}

MultiTestResult MultiTest::test_naive(std::span<const std::uint8_t> outcomes) const {
    const std::size_t n = outcomes.size();
    return test_naive_impl(n, [&](std::size_t len) {
        return outcomes.subspan(n - len, len);
    });
}

}  // namespace hpr::core
