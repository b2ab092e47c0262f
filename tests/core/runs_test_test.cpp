// Unit tests for the Wald-Wolfowitz runs test (core/runs_test.h).

#include "core/runs_test.h"

#include <gtest/gtest.h>

#include "core/behavior_test.h"
#include "sim/generators.h"

namespace hpr::core {
namespace {

std::vector<std::uint8_t> pattern(const std::string& bits) {
    std::vector<std::uint8_t> out;
    for (const char c : bits) out.push_back(c == '1' ? 1 : 0);
    return out;
}

TEST(RunsTest, RejectsBadConfig) {
    RunsTestConfig bad;
    bad.confidence = 1.0;
    EXPECT_THROW(RunsTest{bad}, std::invalid_argument);
    bad = {};
    bad.min_each = 1;
    EXPECT_THROW(RunsTest{bad}, std::invalid_argument);
}

TEST(RunsTest, CountsRunsCorrectly) {
    RunsTestConfig config;
    config.min_each = 2;
    const RunsTest tester{config};
    // 1100011 -> runs: 11, 000, 11 = 3.
    const auto result = tester.test(std::span<const std::uint8_t>{pattern("1100011")});
    EXPECT_EQ(result.runs, 3u);
    EXPECT_EQ(result.good, 4u);
    EXPECT_EQ(result.bad, 3u);
}

TEST(RunsTest, OneSidedHistoriesAreInsufficient) {
    const RunsTest tester;
    const std::vector<std::uint8_t> all_good(200, 1);
    const auto result = tester.test(std::span<const std::uint8_t>{all_good});
    EXPECT_FALSE(result.sufficient);
    EXPECT_TRUE(result.passed);
    const std::vector<std::uint8_t> empty;
    EXPECT_TRUE(tester.test(std::span<const std::uint8_t>{empty}).passed);
}

TEST(RunsTest, HonestStreamsMostlyPass) {
    const RunsTest tester;
    stats::Rng rng{5001};
    int failures = 0;
    constexpr int kTrials = 300;
    for (int t = 0; t < kTrials; ++t) {
        const auto outcomes = sim::honest_outcomes(600, 0.8, rng);
        if (!tester.test(std::span<const std::uint8_t>{outcomes}).passed) ++failures;
    }
    // Asymptotically a 5% two-sided test.
    EXPECT_LT(failures, kTrials / 10);
    EXPECT_GT(failures, 0);  // but it is a real test, not a rubber stamp
}

TEST(RunsTest, StrictAlternationHasTooManyRuns) {
    const RunsTest tester;
    std::vector<std::uint8_t> alternating;
    for (int i = 0; i < 200; ++i) alternating.push_back(i % 2 == 0 ? 1 : 0);
    const auto result = tester.test(std::span<const std::uint8_t>{alternating});
    ASSERT_TRUE(result.sufficient);
    EXPECT_FALSE(result.passed);
    EXPECT_GT(result.z, 0.0);          // over-alternating
    EXPECT_EQ(result.runs, 200u);
}

TEST(RunsTest, BurstsHaveTooFewRuns) {
    // 300 goods then 40 bads then 300 goods: 3 runs where ~66 expected.
    const RunsTest tester;
    std::vector<std::uint8_t> bursty(300, 1);
    bursty.insert(bursty.end(), 40, std::uint8_t{0});
    bursty.insert(bursty.end(), 300, std::uint8_t{1});
    const auto result = tester.test(std::span<const std::uint8_t>{bursty});
    ASSERT_TRUE(result.sufficient);
    EXPECT_FALSE(result.passed);
    EXPECT_LT(result.z, 0.0);
    EXPECT_EQ(result.runs, 3u);
    EXPECT_GT(result.expected_runs, 30.0);
}

TEST(RunsTest, DetectsHibernatingTail) {
    const RunsTest tester;
    stats::Rng rng{5002};
    int detected = 0;
    constexpr int kTrials = 40;
    for (int t = 0; t < kTrials; ++t) {
        auto outcomes = sim::honest_outcomes(500, 0.9, rng);
        outcomes.insert(outcomes.end(), 30, std::uint8_t{0});
        if (!tester.test(std::span<const std::uint8_t>{outcomes}).passed) ++detected;
    }
    EXPECT_GT(detected, kTrials * 3 / 4);
}

TEST(RunsTest, BothScreensCatchTightPeriodicAttacks) {
    // Exactly one bad per 10 transactions: the window test sees the
    // underdispersed counts (point mass at 9); the runs test sees the
    // over-regular spacing (isolated bads mean ~20% more runs than an
    // exchangeable stream, z > 0).  Tight periodicity cannot hide from
    // either statistic.
    const RunsTest runs_tester;
    const BehaviorTest window_tester;
    stats::Rng rng{5003};
    int runs_detected = 0;
    int window_detected = 0;
    constexpr int kTrials = 40;
    for (int t = 0; t < kTrials; ++t) {
        const auto outcomes = sim::periodic_outcomes(800, 10, 0.1, rng);
        const std::span<const std::uint8_t> view{outcomes};
        const auto runs_result = runs_tester.test(view);
        if (!runs_result.passed) {
            ++runs_detected;
            EXPECT_GT(runs_result.z, 0.0);  // over-alternating direction
        }
        if (!window_tester.test(view).passed) ++window_detected;
    }
    EXPECT_GT(window_detected, kTrials * 3 / 4);
    EXPECT_GT(runs_detected, kTrials * 3 / 4);
}

TEST(RunsTest, BlindToWindowCountAnomaliesWithHonestSpacing) {
    // The complementarity direction that does hold: shuffle a rigid
    // "exactly one bad per window" pattern *within each pair of windows*
    // so spacing stays honest-ish while per-window counts... still rigid.
    // Simpler and airtight: an exchangeable stream (honest) passes the
    // runs test even when a *global* property (here: an engineered exact
    // 10% bad count) would be distribution-relevant.  The runs test
    // conditions on counts, so it cannot see count engineering at all.
    const RunsTest tester;
    stats::Rng rng{5006};
    int flagged = 0;
    constexpr int kTrials = 60;
    for (int t = 0; t < kTrials; ++t) {
        // Exactly 80 bads in 800, positions fully random: count-engineered
        // (binomial would have variance in the count) but exchangeable.
        std::vector<std::uint8_t> outcomes(800, 1);
        std::vector<std::size_t> order(800);
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        for (int b = 0; b < 80; ++b) outcomes[order[static_cast<std::size_t>(b)]] = 0;
        if (!tester.test(std::span<const std::uint8_t>{outcomes}).passed) ++flagged;
    }
    // Fully exchangeable by construction: flags stay at the nominal rate.
    EXPECT_LT(flagged, kTrials / 6);
}

TEST(RunsTest, ConfidenceControlsStrictness) {
    RunsTestConfig strict;
    strict.confidence = 0.99;
    const RunsTest at95;
    const RunsTest at99{strict};
    stats::Rng rng{5004};
    int flips = 0;
    for (int t = 0; t < 200; ++t) {
        const auto outcomes = sim::honest_outcomes(400, 0.8, rng);
        const std::span<const std::uint8_t> view{outcomes};
        const bool pass95 = at95.test(view).passed;
        const bool pass99 = at99.test(view).passed;
        // 99% can only be more permissive.
        ASSERT_TRUE(!pass95 || pass99);
        if (pass99 && !pass95) ++flips;
    }
    EXPECT_GT(flips, 0);
}

TEST(RunsTest, FeedbackOverloadAgrees) {
    const RunsTest tester;
    stats::Rng rng{5005};
    const auto history = sim::honest_history(400, 0.85, rng);
    std::vector<std::uint8_t> outcomes;
    for (const auto& f : history.feedbacks()) outcomes.push_back(f.good() ? 1 : 0);
    const auto a = tester.test(history.view());
    const auto b = tester.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_DOUBLE_EQ(a.z, b.z);
}

}  // namespace
}  // namespace hpr::core
