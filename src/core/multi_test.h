#ifndef HPR_CORE_MULTI_TEST_H
#define HPR_CORE_MULTI_TEST_H

/// \file multi_test.h
/// Multi-testing of server behavior (paper §3.3): the single behavior
/// test is applied to the whole history and to the most recent
/// n - step, n - 2*step, ... transactions, so that both long-term and
/// short-term behavior must look honest.  Failing any suffix marks the
/// server suspicious.
///
/// Two implementations are provided:
///  * run_ladder()  — the optimized O(n) algorithm of §5.5: window
///    statistics are accumulated incrementally from the newest suffix to
///    the full history, so each additional suffix costs O(step + m).  It
///    is the one ladder: MultiTest::test() runs it over a stored history
///    and OnlineScreener (online.h) over its retained window ring, so
///    batch and streaming share one stage count, one Bonferroni
///    correction and one trace-evidence fill.
///  * test_naive()  — the direct O(n²/step) algorithm (each suffix is
///    re-windowed from scratch).  Kept as the independent reference, with
///    its own stage loop and bookkeeping: the test suite checks both agree
///    bit-for-bit, and the Fig. 9 bench uses it as the ablation baseline.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/behavior_test.h"
#include "core/config.h"
#include "core/scratch.h"
#include "obs/trace.h"
#include "repsys/types.h"

namespace hpr::core {

/// Outcome of a multi-test.
struct MultiTestResult {
    bool passed = true;           ///< every evaluated suffix passed
    bool sufficient = false;      ///< at least one suffix was testable
    std::size_t stages_run = 0;   ///< number of suffix tests evaluated

    /// Length (in transactions) of the shortest failing suffix, if any.
    std::optional<std::size_t> failed_suffix_length;

    /// Result of the failing stage, if any.
    std::optional<BehaviorTestResult> failure;

    /// Per-stage results, shortest suffix first (only when
    /// MultiTestConfig::collect_details is set).
    std::vector<BehaviorTestResult> details;

    /// Smallest ε - d margin across evaluated stages (how close the
    /// history came to rejection).
    double min_margin = 0.0;
};

/// Trace evidence for one behavior-test evaluation over a suffix of
/// `suffix_length` transactions.
[[nodiscard]] obs::StageEvidence to_evidence(const BehaviorTestResult& result,
                                             std::size_t suffix_length);

/// The §3.3 suffix ladder over `windows` complete windows that are
/// aligned at the newest end of a history.  `newest_good(w)` returns the
/// good count of the w-th newest window (0 = newest); `leftover` is the
/// number of transactions older than the oldest window, which belong only
/// to the full-history suffix.
///
/// Stages run shortest suffix first: the deepest spans all `windows`, and
/// each shorter one drops `config.effective_step() / m` windows, down to
/// `min_windows`.  A stage's suffix length is `want * m + leftover`, where
/// `want` is its window count.  Window counts accumulate in the calling
/// thread's `ladder_counts` slot (core/scratch.h), which this ladder owns
/// as the outermost loop on the thread.  When a trace is open, each stage
/// appends its evidence to the record.
///
/// A template so the per-window read inlines: this loop is the whole
/// per-window cost of streaming screening.
template <typename NewestGood>
[[nodiscard]] MultiTestResult run_ladder(const BehaviorTest& single,
                                         const MultiTestConfig& config,
                                         std::size_t windows, std::size_t leftover,
                                         NewestGood newest_good) {
    const std::uint32_t m = config.base.window_size;
    const std::size_t min_windows = config.base.min_windows;
    MultiTestResult result;
    if (windows < min_windows) return result;
    const std::size_t step = config.effective_step() / m;
    const std::size_t stages = (windows - min_windows) / step + 1;
    result.sufficient = true;
    result.min_margin = std::numeric_limits<double>::infinity();

    stats::EmpiricalDistribution& counts = assessment_scratch().ladder_counts;
    counts.reset(m);
    std::size_t added = 0;

    obs::TraceSpan ladder{"phase1/ladder"};
    obs::TraceContext* trace = obs::TraceContext::current();
    const bool span_stages = trace != nullptr && trace->span_stages();
    if (trace != nullptr) trace->record()->stages.reserve(stages);
    if (config.collect_details) result.details.reserve(stages);

    // Family-wise (Bonferroni) correction when enabled; 0 means "use the
    // configured default".
    const double confidence =
        config.bonferroni
            ? 1.0 - (1.0 - config.base.confidence) / static_cast<double>(stages)
            : 0.0;
    for (std::size_t stage = 0; stage < stages; ++stage) {
        obs::TraceSpan stage_span{"phase1/stage", span_stages};
        const std::size_t want = windows - (stages - 1 - stage) * step;
        for (; added < want; ++added) counts.add(newest_good(added));
        const BehaviorTestResult stage_result = single.test(counts, confidence);
        const std::size_t suffix_length = want * m + leftover;
        if (trace != nullptr) {
            trace->record()->stages.push_back(to_evidence(stage_result, suffix_length));
        }
        ++result.stages_run;
        if (stage_result.sufficient && stage_result.margin() < result.min_margin) {
            result.min_margin = stage_result.margin();
        }
        if (config.collect_details) result.details.push_back(stage_result);
        if (!stage_result.passed) {
            result.passed = false;
            if (!result.failed_suffix_length) {
                result.failed_suffix_length = suffix_length;
                result.failure = stage_result;
            }
            if (config.stop_on_failure) break;
        }
    }
    return result;
}

/// Reusable multi-tester sharing one calibration cache.
class MultiTest {
public:
    explicit MultiTest(MultiTestConfig config = {},
                       std::shared_ptr<stats::Calibrator> calibrator = nullptr);

    /// Optimized O(n) multi-test over a feedback sequence (oldest first).
    [[nodiscard]] MultiTestResult test(std::span<const repsys::Feedback> feedbacks) const;

    /// Optimized O(n) multi-test over a raw outcome sequence.
    [[nodiscard]] MultiTestResult test(std::span<const std::uint8_t> outcomes) const;

    /// Reference O(n²/step) implementation (identical verdicts).
    [[nodiscard]] MultiTestResult test_naive(
        std::span<const repsys::Feedback> feedbacks) const;
    [[nodiscard]] MultiTestResult test_naive(
        std::span<const std::uint8_t> outcomes) const;

    [[nodiscard]] const MultiTestConfig& config() const noexcept { return config_; }
    [[nodiscard]] const BehaviorTest& single() const noexcept { return single_; }

private:
    template <typename Subspan>
    [[nodiscard]] MultiTestResult test_naive_impl(std::size_t n, Subspan suffix) const;

    MultiTestConfig config_;
    BehaviorTest single_;
};

}  // namespace hpr::core

#endif  // HPR_CORE_MULTI_TEST_H
