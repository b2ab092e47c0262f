// Reproduction tests: small-trial versions of the paper's figures,
// asserting the qualitative shapes EXPERIMENTS.md documents.  These are
// the contract between the bench harness and the paper — if a refactor
// breaks an experiment's shape, these fail before anyone re-plots
// anything.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <limits>

#include "hpr.h"

namespace hpr {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

/// Thread CPU seconds of the fastest of five runs of `run`.  Preemption
/// and host stalls only ever add time, so the minimum of CPU time is the
/// least noisy estimate of the algorithm's own cost.
template <typename Run>
double min_cpu_seconds(Run run) {
    const auto now = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
        const double start = now();
        run();
        best = std::min(best, now() - start);
    }
    return best;
}

double median_cost(core::ScreeningMode mode, const std::string& trust,
                   std::size_t prep, std::size_t trials = 7) {
    sim::AttackCostConfig config;
    config.prep_size = prep;
    config.screening = mode;
    config.trust_spec = trust;
    config.seed = 42000 + prep;
    config.max_attack_steps = 20000;
    return sim::run_attack_cost_trials(config, trials, shared_cal()).median_cost();
}

double collusion_median_cost(core::ScreeningMode mode, std::size_t prep) {
    sim::CollusionCostConfig config;
    config.prep_size = prep;
    config.screening = mode;
    config.seed = 43000 + prep;
    config.max_attack_steps = 20000;
    return sim::run_collusion_cost_trials(config, 5, shared_cal()).median_cost();
}

TEST(Fig3Shape, AverageAloneCollapsesAtLargePrep) {
    EXPECT_GT(median_cost(core::ScreeningMode::kNone, "average", 100), 80.0);
    EXPECT_EQ(median_cost(core::ScreeningMode::kNone, "average", 800), 0.0);
}

TEST(Fig3Shape, Scheme1CostDecaysWithPrep) {
    const double small = median_cost(core::ScreeningMode::kSingle, "average", 100);
    const double large = median_cost(core::ScreeningMode::kSingle, "average", 800);
    EXPECT_LT(large, 0.5 * small);
}

TEST(Fig3Shape, Scheme2CostStaysHighAndDominates) {
    const double at400 = median_cost(core::ScreeningMode::kMulti, "average", 400);
    const double at800 = median_cost(core::ScreeningMode::kMulti, "average", 800);
    EXPECT_GT(at400, 25.0);
    EXPECT_GT(at800, 25.0);
    EXPECT_GT(at800, median_cost(core::ScreeningMode::kNone, "average", 800));
    EXPECT_GT(at800, median_cost(core::ScreeningMode::kSingle, "average", 800));
}

TEST(Fig4Shape, WeightedAloneIsPrepIndependent) {
    const double at100 = median_cost(core::ScreeningMode::kNone, "weighted:0.5", 100);
    const double at800 = median_cost(core::ScreeningMode::kNone, "weighted:0.5", 800);
    // ~2-3 goods per bad for 20 attacks, regardless of preparation.
    EXPECT_NEAR(at100, at800, 6.0);
    EXPECT_GT(at100, 35.0);
    EXPECT_LT(at100, 90.0);
}

TEST(Fig4Shape, Scheme2AddsPremiumOverWeighted) {
    const double plain = median_cost(core::ScreeningMode::kNone, "weighted:0.5", 600);
    const double multi = median_cost(core::ScreeningMode::kMulti, "weighted:0.5", 600);
    EXPECT_GT(multi, plain + 5.0);
}

TEST(Fig5Shape, CollusionMakesUndefendedAttacksFree) {
    EXPECT_EQ(collusion_median_cost(core::ScreeningMode::kNone, 200), 0.0);
    EXPECT_EQ(collusion_median_cost(core::ScreeningMode::kNone, 800), 0.0);
}

TEST(Fig5Shape, ResilientMultiTestingKeepsCollusionExpensive) {
    const double cost = collusion_median_cost(core::ScreeningMode::kMulti, 400);
    EXPECT_GT(cost, 20.0);
}

TEST(Fig7Shape, DetectionDecaysWithAttackWindow) {
    const auto rate = [&](std::size_t window) {
        sim::DetectionConfig config;
        config.attack_window = window;
        config.trials = 80;
        config.seed = 44000 + window;
        return sim::detection_rate(config, shared_cal());
    };
    const double at10 = rate(10);
    const double at80 = rate(80);
    EXPECT_GT(at10, 0.95);
    EXPECT_LT(at80, 0.5);
    EXPECT_GT(at10, at80 + 0.4);
}

TEST(Fig8Shape, ThresholdShrinksAndFlattens) {
    auto cal = shared_cal();
    const double at100 = cal->threshold(10, 10, 0.9);
    const double at1000 = cal->threshold(100, 10, 0.9);
    const double at4000 = cal->threshold(400, 10, 0.9);
    EXPECT_GT(at100, at1000);
    EXPECT_GT(at1000, at4000);
    // Early drop is much steeper than the tail: convergence.
    EXPECT_GT(at100 - at1000, 2.0 * (at1000 - at4000));
}

TEST(Fig9Shape, OptimizedMultiTestScalesLinearly) {
    core::MultiTestConfig config;
    config.stop_on_failure = false;
    const core::MultiTest tester{config, shared_cal()};
    stats::Rng rng{45000};
    const auto small = sim::honest_outcomes(50000, 0.9, rng);
    const auto large = sim::honest_outcomes(200000, 0.9, rng);
    const auto time_of = [&](const std::vector<std::uint8_t>& outcomes) {
        const std::span<const std::uint8_t> view{outcomes};
        (void)tester.test(view);  // warm calibration
        return min_cpu_seconds([&] { (void)tester.test(view); });
    };
    const double t_small = time_of(small);
    const double t_large = time_of(large);
    // 4x the input must cost clearly less than the ~16x a quadratic
    // algorithm would; allow generous noise around the expected ~4x.
    EXPECT_LT(t_large, 12.0 * t_small);
}

TEST(Fig9Shape, NaiveMultiTestIsQuadratic) {
    core::MultiTestConfig config;
    config.stop_on_failure = false;
    const core::MultiTest tester{config, shared_cal()};
    stats::Rng rng{45001};
    const auto small = sim::honest_outcomes(10000, 0.9, rng);
    const auto large = sim::honest_outcomes(40000, 0.9, rng);
    const auto time_of = [&](const std::vector<std::uint8_t>& outcomes) {
        const std::span<const std::uint8_t> view{outcomes};
        (void)tester.test(view);  // warm calibration
        return min_cpu_seconds([&] { (void)tester.test_naive(view); });
    };
    const double t_small = time_of(small);
    const double t_large = time_of(large);
    // Quadratic: 4x input => ~16x time.  Require clearly super-linear.
    EXPECT_GT(t_large, 5.0 * t_small);
}

}  // namespace
}  // namespace hpr
