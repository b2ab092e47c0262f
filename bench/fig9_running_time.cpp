// Reproduces paper Fig. 9: running time of behavior testing vs. the
// initial-history size (100 000 .. 800 000 transactions).
//
// The paper reports that single-behavior testing is O(n) and that the
// optimized multi-testing of §5.5 — which reuses intermediate window
// statistics across suffixes — is O(n) as well, so both curves grow
// linearly and screening even huge histories is fast.  The naive
// O(n^2/step) multi-testing is included as an ablation on smaller inputs
// to show the quadratic blow-up the optimization removes.
//
// Calibration thresholds are warmed up before timing (the paper's Fig. 9
// measures the testing algorithm; threshold calibration is a memoized
// one-time cost shared by every test).

#include <chrono>
#include <functional>

#include "bench_common.h"
#include "core/multi_test.h"
#include "sim/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& body, int repetitions) {
    // One untimed warm-up populates calibration caches.
    body();
    const auto start = Clock::now();
    for (int r = 0; r < repetitions; ++r) body();
    const auto elapsed = Clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count() / repetitions;
}

}  // namespace

int main() {
    const auto cal = hpr::core::make_calibrator({});
    const hpr::core::BehaviorTest single{{}, cal};
    hpr::core::MultiTestConfig multi_config;
    multi_config.stop_on_failure = false;  // time the full scan
    const hpr::core::MultiTest multi{multi_config, cal};

    // Warm the calibration cache explicitly (and time it): one
    // pool-parallel sweep over every key the suffix ladders below can
    // touch, instead of paying cold Monte-Carlo runs mid-measurement.
    {
        const auto warm_begin = Clock::now();
        const std::size_t warmed = hpr::core::warm_calibration(
            *cal, 10, cal->config().windows_cap, 0.85, 0.95);
        const double warm_s =
            std::chrono::duration<double>(Clock::now() - warm_begin).count();
        std::printf("calibration warm start: %zu keys in %.1fs on %zu threads "
                    "(%zu Monte-Carlo runs)\n\n",
                    warmed, warm_s, cal->threads(), cal->stats().misses);
    }

    hpr::stats::Rng rng{6001};

    {
        const std::vector<double> sizes{100000, 200000, 300000, 400000,
                                        500000, 600000, 700000, 800000};
        hpr::bench::Series single_ms{"single test (ms)", {}};
        hpr::bench::Series multi_ms{"multi opt (ms)", {}};
        for (const double n : sizes) {
            const auto outcomes =
                hpr::sim::honest_outcomes(static_cast<std::size_t>(n), 0.9, rng);
            const std::span<const std::uint8_t> view{outcomes};
            single_ms.values.push_back(
                time_ms([&] { (void)single.test(view); }, 5));
            multi_ms.values.push_back(time_ms([&] { (void)multi.test(view); }, 5));
        }
        hpr::bench::print_figure(
            "Fig.9  behavior-testing time vs history size (O(n) algorithms)",
            "history_size", sizes, {single_ms, multi_ms});
    }

    {
        // Ablation: naive multi-testing re-counts every suffix — quadratic.
        const std::vector<double> sizes{10000, 20000, 40000, 80000};
        hpr::bench::Series naive_ms{"multi naive (ms)", {}};
        hpr::bench::Series opt_ms{"multi opt (ms)", {}};
        for (const double n : sizes) {
            const auto outcomes =
                hpr::sim::honest_outcomes(static_cast<std::size_t>(n), 0.9, rng);
            const std::span<const std::uint8_t> view{outcomes};
            naive_ms.values.push_back(
                time_ms([&] { (void)multi.test_naive(view); }, 1));
            opt_ms.values.push_back(time_ms([&] { (void)multi.test(view); }, 1));
        }
        hpr::bench::print_figure(
            "Fig.9 (ablation)  naive O(n^2) vs optimized O(n) multi-testing",
            "history_size", sizes, {naive_ms, opt_ms});
    }
    std::printf("\n(window 10, step 20, warmed calibration cache, means of repeated runs)\n");
    hpr::bench::print_metrics();
    return 0;
}
