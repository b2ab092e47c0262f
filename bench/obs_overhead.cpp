// Instrumentation-overhead budget check for the assessment hot path.
//
//   build/bench/obs_overhead [--quick] [--budget <percent>]
//
// Measures TwoPhaseAssessor::assess on a large warmed history four ways:
//
//   baseline   — the exact pre-instrumentation pipeline, hand-inlined
//                from uninstrumented components (MultiTest::test + trust
//                evaluation + the verdict decision): what assess() cost
//                before src/obs/ existed, i.e. "instrumentation compiled
//                out";
//   metrics    — assess() with the metrics registry recording and the
//                decision tracer inactive (the production default);
//   +tracing   — assess() with metrics AND the decision tracer sampling
//                every assessment (rate 1.0): the
//                full evidence record built and committed to the ring;
//   disabled   — assess() with the global kill switch off (every metric
//                and trace site reduced to a relaxed load + branch).
//
// Rounds of the contenders are interleaved (A B C D | B C D A | ...) and
// each round yields one PAIRED ratio per contender against that same
// round's baseline — the pairing cancels slow drift (thermal, frequency
// scaling) because the four lanes of one round run back-to-back within
// ~10 ms, and rotating which lane goes first cancels the within-round
// drift a fixed order would turn into systematic bias.
// Each lane runs enough iterations (~10 ms) that frequent small noise
// (interrupts, host jitter) averages into numerator and denominator of
// a ratio alike and cancels; the MEDIAN over rounds then discards the
// occasional round a long scheduler burst hit.  When the result still
// lands over budget the whole measurement retries (up to 5 attempts,
// pausing briefly between them): a genuine regression inflates every
// attempt, a transiently loaded host does not.
// Exits nonzero when the metrics-vs-baseline OR the combined
// metrics+tracing-vs-baseline overhead exceeds the budget (default 2%)
// on every attempt, making this binary a CI guard: instrumentation
// added to the hot path later must stay inside the budget or fail the
// build visibly.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/multi_test.h"
#include "core/two_phase.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "repsys/trust.h"
#include "sim/generators.h"

namespace {

using namespace hpr;

constexpr std::size_t kHistorySize = 20000;

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double budget_percent = 2.0;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[a], "--budget") == 0 && a + 1 < argc) {
            budget_percent = std::atof(argv[++a]);
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--budget <percent>]\n",
                         argv[0]);
            return 2;
        }
    }

    // One shared calibrator so every contender answers thresholds from
    // the same warmed cache; an honest history so the full suffix ladder
    // runs (the most instrumentation-dense path: one threshold lookup —
    // and thus one cache-hit counter bump — per ladder stage, and one
    // StageEvidence append per stage when traced).
    const auto calibrator = core::make_calibrator({});
    stats::Rng rng{97};
    const auto history = sim::honest_history(kHistorySize, 0.9, rng);
    const auto feedbacks = history.view();

    const std::shared_ptr<const repsys::TrustFunction> trust{
        repsys::make_trust_function("beta")};
    core::TwoPhaseConfig config;
    config.test.stop_on_failure = false;  // deterministic full-ladder work
    const core::TwoPhaseAssessor assessor{config, trust, calibrator};

    // The pre-instrumentation pipeline, reconstructed from components that
    // carry no obs sites of their own: screening + trust + verdict.
    core::MultiTestConfig multi_config = config.test;
    const core::MultiTest multi{multi_config, calibrator};
    const auto baseline_assess = [&] {
        core::Assessment assessment;
        assessment.screening = multi.test(feedbacks);
        if (!assessment.screening.passed) {
            assessment.verdict = core::Verdict::kSuspicious;
            return assessment;
        }
        assessment.trust = trust->evaluate(feedbacks);
        assessment.verdict = assessment.screening.sufficient
                                 ? core::Verdict::kAssessed
                                 : core::Verdict::kInsufficientHistory;
        return assessment;
    };

    // Warm the calibration cache and fault in every code path once, then
    // clear the carried-over counts so the printed metrics reflect the
    // measured rounds only.
    (void)baseline_assess();
    if (assessor.assess(feedbacks).verdict != baseline_assess().verdict) {
        std::fprintf(stderr, "verdict mismatch between assess() and baseline\n");
        return 2;
    }
    obs::default_registry().reset_for_tests();

    obs::Tracer& tracer = obs::default_tracer();
    tracer.set_sample_rate(1.0);

    const int rounds = quick ? 12 : 24;
    const int iterations = quick ? 4 : 8;
    std::vector<double> baseline_rounds;
    std::vector<double> metrics_rounds;
    std::vector<double> traced_rounds;
    std::vector<double> disabled_rounds;
    volatile bool sink = false;  // keep the assessments observable
    const auto time_instrumented = [&] {
        const obs::Stopwatch watch;
        for (int i = 0; i < iterations; ++i) {
            sink = assessor.assess(feedbacks).acceptable(0.5);
        }
        return watch.seconds() / iterations;
    };
    const std::function<void()> lanes[4] = {
        [&] {
            const obs::Stopwatch watch;
            for (int i = 0; i < iterations; ++i) sink = baseline_assess().acceptable(0.5);
            baseline_rounds.push_back(watch.seconds() / iterations);
        },
        [&] {
            obs::set_enabled(true);
            tracer.set_enabled(false);
            metrics_rounds.push_back(time_instrumented());
        },
        [&] {
            obs::set_enabled(true);
            tracer.set_enabled(true);
            traced_rounds.push_back(time_instrumented());
            tracer.set_enabled(false);
            (void)tracer.ring().drain();  // no carry-over between rounds
        },
        [&] {
            obs::set_enabled(false);
            tracer.set_enabled(true);  // must be neutralized by the kill switch
            disabled_rounds.push_back(time_instrumented());
            tracer.set_enabled(false);
            obs::set_enabled(true);
        },
    };
    // One measurement pass; attempts below retry it when the host was
    // too loaded to resolve a sub-percent effect.
    double metrics_overhead = 0.0;
    double traced_overhead = 0.0;
    const auto measure = [&] {
        baseline_rounds.clear();
        metrics_rounds.clear();
        traced_rounds.clear();
        disabled_rounds.clear();
        for (int r = 0; r < rounds; ++r) {
            for (int k = 0; k < 4; ++k) lanes[(r + k) % 4]();
        }

        std::vector<double> metrics_ratios;
        std::vector<double> traced_ratios;
        std::vector<double> disabled_ratios;
        for (std::size_t r = 0; r < baseline_rounds.size(); ++r) {
            metrics_ratios.push_back(metrics_rounds[r] / baseline_rounds[r]);
            traced_ratios.push_back(traced_rounds[r] / baseline_rounds[r]);
            disabled_ratios.push_back(disabled_rounds[r] / baseline_rounds[r]);
        }

        const auto median = [](std::vector<double>& samples) {
            const std::size_t mid = samples.size() / 2;
            std::nth_element(samples.begin(),
                             samples.begin() + static_cast<std::ptrdiff_t>(mid),
                             samples.end());
            return samples[mid];
        };
        const double baseline_s = median(baseline_rounds);
        const double metrics_s = baseline_s * median(metrics_ratios);
        const double traced_s = baseline_s * median(traced_ratios);
        const double disabled_s = baseline_s * median(disabled_ratios);
        metrics_overhead = (metrics_s / baseline_s - 1.0) * 100.0;
        traced_overhead = (traced_s / baseline_s - 1.0) * 100.0;
        const double disabled_overhead = (disabled_s / baseline_s - 1.0) * 100.0;
        std::printf("=== obs overhead on TwoPhaseAssessor::assess "
                    "(%zu-transaction history, %d rounds x %d iters, median of "
                    "paired round ratios) ===\n",
                    kHistorySize, rounds, iterations);
        std::printf("  baseline (uninstrumented pipeline): %10.3f ms\n",
                    baseline_s * 1e3);
        std::printf("  metrics enabled, tracer off:        %10.3f ms  (%+.2f%%)\n",
                    metrics_s * 1e3, metrics_overhead);
        std::printf("  metrics + tracing (sample 1.0):     %10.3f ms  (%+.2f%%)\n",
                    traced_s * 1e3, traced_overhead);
        std::printf("  instrumentation disabled (switch):  %10.3f ms  (%+.2f%%)\n",
                    disabled_s * 1e3, disabled_overhead);
        std::printf("  budget: %.2f%%\n", budget_percent);
    };

    // Several attempts: a genuine hot-path regression inflates every
    // round of every attempt and still fails, while a transient burst of
    // host load (which can shift sub-second medians by several percent)
    // clears on a re-measurement after a short pause.  Only the budget
    // decision retries; the printed numbers are whichever attempt
    // decided it.
    constexpr int kAttempts = 5;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
        measure();
        if (metrics_overhead <= budget_percent && traced_overhead <= budget_percent) {
            hpr::bench::print_metrics();
            std::printf("\nPASS: overhead within budget\n");
            return 0;
        }
        if (attempt < kAttempts) {
            std::printf("  over budget (metrics %+.2f%%, traced %+.2f%%); "
                        "re-measuring (%d/%d)\n",
                        metrics_overhead, traced_overhead, attempt, kAttempts);
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
    }
    hpr::bench::print_metrics();
    if (metrics_overhead > budget_percent) {
        std::fprintf(stderr,
                     "FAIL: metrics instrumentation overhead %.2f%% exceeds the "
                     "%.2f%% budget\n",
                     metrics_overhead, budget_percent);
    }
    if (traced_overhead > budget_percent) {
        std::fprintf(stderr,
                     "FAIL: combined metrics+tracing overhead %.2f%% exceeds the "
                     "%.2f%% budget\n",
                     traced_overhead, budget_percent);
    }
    return 1;
}
