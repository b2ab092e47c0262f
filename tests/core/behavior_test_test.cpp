// Unit and statistical tests for the single behavior test
// (core/behavior_test.h) — paper §3.2.

#include "core/behavior_test.h"

#include <gtest/gtest.h>

#include "sim/generators.h"

namespace hpr::core {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = make_calibrator(BehaviorTestConfig{});
    return cal;
}

TEST(BehaviorTest, RejectsDegenerateConfig) {
    BehaviorTestConfig config;
    config.window_size = 0;
    EXPECT_THROW(BehaviorTest{config}, std::invalid_argument);
    config = {};
    config.min_windows = 0;
    EXPECT_THROW(BehaviorTest{config}, std::invalid_argument);
}

TEST(BehaviorTest, ShortHistoryIsInsufficientButPasses) {
    const BehaviorTest bt{{}, shared_cal()};
    stats::Rng rng{1};
    const auto outcomes = sim::honest_outcomes(25, 0.9, rng);  // 2 windows < 3
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_FALSE(result.sufficient);
    EXPECT_TRUE(result.passed);
    EXPECT_EQ(result.windows, 2u);
}

TEST(BehaviorTest, HonestHistoriesMostlyPass) {
    const BehaviorTest bt{{}, shared_cal()};
    stats::Rng rng{2};
    int failures = 0;
    constexpr int kTrials = 200;
    for (int t = 0; t < kTrials; ++t) {
        const auto outcomes = sim::honest_outcomes(500, 0.9, rng);
        const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
        ASSERT_TRUE(result.sufficient);
        if (!result.passed) ++failures;
    }
    // Calibrated at 95% confidence; estimating p̂ makes the test
    // conservative, so failures should stay clearly below 10%.
    EXPECT_LT(failures, kTrials / 10);
}

TEST(BehaviorTest, HonestPassRateAcrossTrustValues) {
    const BehaviorTest bt{{}, shared_cal()};
    for (double p : {0.5, 0.7, 0.8, 0.95, 0.99}) {
        stats::Rng rng{static_cast<std::uint64_t>(p * 1000)};
        int failures = 0;
        for (int t = 0; t < 60; ++t) {
            const auto outcomes = sim::honest_outcomes(400, p, rng);
            if (!bt.test(std::span<const std::uint8_t>{outcomes}).passed) ++failures;
        }
        EXPECT_LT(failures, 10) << "p=" << p;
    }
}

TEST(BehaviorTest, AllGoodHistoryPassesWithZeroDistance) {
    const BehaviorTest bt{{}, shared_cal()};
    const std::vector<std::uint8_t> outcomes(200, 1);
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_TRUE(result.passed);
    EXPECT_NEAR(result.distance, 0.0, 1e-12);
    EXPECT_NEAR(result.p_hat, 1.0, 1e-12);
}

TEST(BehaviorTest, AllBadHistoryPassesAsConsistentlyBad) {
    // A consistently terrible server is *consistent*: screening passes,
    // and it is phase 2 (the trust function) that rejects it.
    const BehaviorTest bt{{}, shared_cal()};
    const std::vector<std::uint8_t> outcomes(200, 0);
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_TRUE(result.passed);
    EXPECT_NEAR(result.p_hat, 0.0, 1e-12);
}

TEST(BehaviorTest, RigidAlternationIsDetected) {
    // Exactly one bad per window (the N = 10 periodic attack of §5.3):
    // the empirical distribution is a point mass at m-1, which is far
    // from B(10, 0.9) in L1.
    const BehaviorTest bt{{}, shared_cal()};
    std::vector<std::uint8_t> outcomes;
    for (int w = 0; w < 40; ++w) {
        outcomes.push_back(0);
        for (int i = 0; i < 9; ++i) outcomes.push_back(1);
    }
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_FALSE(result.passed);
    EXPECT_GT(result.distance, result.threshold);
}

TEST(BehaviorTest, BurstOfBadsIsDetected) {
    // Honest prefix then 30 consecutive bads: hibernating-attack tail.
    const BehaviorTest bt{{}, shared_cal()};
    stats::Rng rng{3};
    auto outcomes = sim::honest_outcomes(300, 0.95, rng);
    outcomes.insert(outcomes.end(), 30, std::uint8_t{0});
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_FALSE(result.passed);
}

TEST(BehaviorTest, ResultFieldsAreCoherent) {
    const BehaviorTest bt{{}, shared_cal()};
    stats::Rng rng{4};
    const auto outcomes = sim::honest_outcomes(437, 0.9, rng);
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_EQ(result.windows, 43u);
    EXPECT_EQ(result.transactions_used, 430u);
    EXPECT_GE(result.p_hat, 0.0);
    EXPECT_LE(result.p_hat, 1.0);
    EXPECT_NEAR(result.margin(), result.threshold - result.distance, 1e-15);
}

TEST(BehaviorTest, DeterministicForSameInput) {
    const BehaviorTest bt{{}, shared_cal()};
    stats::Rng rng{5};
    const auto outcomes = sim::honest_outcomes(400, 0.9, rng);
    const auto a = bt.test(std::span<const std::uint8_t>{outcomes});
    const auto b = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.threshold, b.threshold);
}

TEST(BehaviorTest, FeedbackAndOutcomeOverloadsAgree) {
    stats::Rng rng{6};
    const BehaviorTest bt{{}, shared_cal()};
    const auto history = sim::honest_history(400, 0.9, rng);
    std::vector<std::uint8_t> outcomes;
    for (const auto& f : history.feedbacks()) outcomes.push_back(f.good() ? 1 : 0);
    const auto from_history = bt.test(history.view());
    const auto from_outcomes = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_EQ(from_history.passed, from_outcomes.passed);
    EXPECT_EQ(from_history.distance, from_outcomes.distance);
}

TEST(BehaviorTest, WindowSizeMismatchThrows) {
    const BehaviorTest bt{{}, shared_cal()};
    WindowStats ws;
    ws.window_size = 20;
    EXPECT_THROW((void)bt.test(ws), std::invalid_argument);
    const stats::EmpiricalDistribution wrong_support{20};
    EXPECT_THROW((void)bt.test(wrong_support), std::invalid_argument);
}

TEST(BehaviorTest, LargerWindowConfigWorks) {
    BehaviorTestConfig config;
    config.window_size = 25;
    const BehaviorTest bt{config};
    stats::Rng rng{7};
    const auto outcomes = sim::honest_outcomes(1000, 0.9, rng);
    const auto result = bt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_TRUE(result.sufficient);
    EXPECT_EQ(result.windows, 40u);
}

class BehaviorTestDistanceKinds
    : public ::testing::TestWithParam<stats::DistanceKind> {};

TEST_P(BehaviorTestDistanceKinds, HonestPassesAttackFails) {
    BehaviorTestConfig config;
    config.distance = GetParam();
    const BehaviorTest bt{config};
    stats::Rng rng{8};

    int honest_failures = 0;
    for (int t = 0; t < 30; ++t) {
        const auto honest = sim::honest_outcomes(500, 0.9, rng);
        if (!bt.test(std::span<const std::uint8_t>{honest}).passed) ++honest_failures;
    }
    EXPECT_LE(honest_failures, 5) << stats::to_string(GetParam());

    // Rigid one-bad-per-window attack.
    std::vector<std::uint8_t> attack;
    for (int w = 0; w < 50; ++w) {
        attack.push_back(0);
        for (int i = 0; i < 9; ++i) attack.push_back(1);
    }
    EXPECT_FALSE(bt.test(std::span<const std::uint8_t>{attack}).passed)
        << stats::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BehaviorTestDistanceKinds,
                         ::testing::Values(stats::DistanceKind::kL1,
                                           stats::DistanceKind::kL2,
                                           stats::DistanceKind::kTotalVariation,
                                           stats::DistanceKind::kKolmogorovSmirnov));

TEST(WarmCalibration, CoversEveryKeyScreeningCanHit) {
    // After warming for histories up to 300 transactions with p̂ in
    // [0.7, 1.0], screening such histories must trigger zero additional
    // Monte-Carlo runs.
    BehaviorTestConfig config;
    config.replications = 200;  // keep the grid sweep cheap
    config.calibration_threads = 2;
    const auto cal = make_calibrator(config);
    const std::size_t warmed = warm_calibration(*cal, 10, 300 / 10, 0.7, 1.0);
    EXPECT_GT(warmed, 0u);
    EXPECT_EQ(cal->stats().misses, warmed);

    const BehaviorTest bt{config, cal};
    stats::Rng rng{77};
    for (const double p : {0.85, 0.9, 0.97}) {
        for (const std::size_t n : {40u, 200u, 300u}) {
            const auto outcomes = sim::honest_outcomes(n, p, rng);
            (void)bt.test(std::span<const std::uint8_t>{outcomes});
        }
    }
    EXPECT_EQ(cal->stats().misses, warmed) << "screening hit a cold key";
}

TEST(WarmCalibration, RejectsBadArguments) {
    const auto cal = make_calibrator(BehaviorTestConfig{});
    EXPECT_THROW((void)warm_calibration(*cal, 0, 10, 0.5, 1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)warm_calibration(*cal, 10, 10, 0.9, 0.5),
                 std::invalid_argument);
    EXPECT_THROW((void)warm_calibration(*cal, 10, 10, -0.1, 0.5),
                 std::invalid_argument);
}

}  // namespace
}  // namespace hpr::core
