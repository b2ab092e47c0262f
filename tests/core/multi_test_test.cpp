// Unit and property tests for multi-testing (core/multi_test.h) —
// paper §3.3 and the O(n) optimization of §5.5.

#include "core/multi_test.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>

#include "sim/generators.h"
#include "stats/reference_cache.h"

namespace hpr::core {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = make_calibrator(BehaviorTestConfig{});
    return cal;
}

TEST(MultiTestConfigTest, EffectiveStepDefaultsAndAligns) {
    MultiTestConfig config;
    EXPECT_EQ(config.effective_step(), 20u);  // 2 * window_size
    config.step = 15;                         // rounded up to multiple of 10
    EXPECT_EQ(config.effective_step(), 20u);
    config.step = 30;
    EXPECT_EQ(config.effective_step(), 30u);
    config.base.window_size = 7;
    config.step = 0;
    EXPECT_EQ(config.effective_step(), 14u);
}

// The Fig. 9 O(n) claim needs every ladder lookup to hit the reference
// cache once warm: a ladder whose distinct keys outnumber the capacity
// evicts on every pass and a miss costs several hits.  Counted, not timed.
TEST(MultiTest, Fig9LaddersFitTheDefaultReferenceCache) {
    auto cache = std::make_shared<stats::ReferenceModelCache>(
        stats::ReferenceModelCache::kDefaultCapacity);
    MultiTestConfig config;
    config.stop_on_failure = false;
    config.base.reference_cache = cache;
    const MultiTest tester{config, shared_cal()};
    stats::Rng rng{45000};
    const auto small = sim::honest_outcomes(50000, 0.9, rng);
    const auto large = sim::honest_outcomes(200000, 0.9, rng);
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto* outcomes : {&small, &large}) {
            (void)tester.test(std::span<const std::uint8_t>{*outcomes});
        }
    }
    EXPECT_EQ(cache->stats().evictions, 0u);
}

// Every reduced (good, total) key a horizon-64, m = 10 serving ladder can
// produce fits the default capacity.
TEST(MultiTest, ServingLadderKeySetFitsTheDefaultReferenceCache) {
    constexpr std::uint64_t kWindowSize = 10;
    constexpr std::uint64_t kHorizonWindows = 64;
    std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
    for (std::uint64_t k = 1; k <= kHorizonWindows; ++k) {
        const std::uint64_t total = k * kWindowSize;
        for (std::uint64_t good = 0; good <= total; ++good) {
            const std::uint64_t g = std::gcd(good, total);
            keys.emplace(good / g, total / g);
        }
    }
    EXPECT_EQ(keys.size(), 12601u);
    EXPECT_LE(keys.size(), stats::ReferenceModelCache::kDefaultCapacity);
}

TEST(MultiTest, ShortHistoryIsInsufficient) {
    const MultiTest mt{{}, shared_cal()};
    const std::vector<std::uint8_t> outcomes(25, 1);
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_FALSE(result.sufficient);
    EXPECT_TRUE(result.passed);
    EXPECT_EQ(result.stages_run, 0u);
}

TEST(MultiTest, StageCountMatchesFormula) {
    MultiTestConfig config;
    config.collect_details = true;
    config.stop_on_failure = false;
    const MultiTest mt{config, shared_cal()};
    const std::vector<std::uint8_t> outcomes(200, 1);
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    // Suffix lengths 200, 180, ..., 40, 20... but >= min_windows*10 = 30,
    // so 200 down to 40: (200-30)/20 + 1 = 9 stages.
    EXPECT_EQ(result.stages_run, 9u);
    EXPECT_EQ(result.details.size(), 9u);
}

TEST(MultiTest, HonestHistoriesMostlyPass) {
    const MultiTest mt{{}, shared_cal()};
    stats::Rng rng{21};
    int failures = 0;
    constexpr int kTrials = 100;
    for (int t = 0; t < kTrials; ++t) {
        const auto outcomes = sim::honest_outcomes(600, 0.9, rng);
        if (!mt.test(std::span<const std::uint8_t>{outcomes}).passed) ++failures;
    }
    // Multiple testing inflates the false-positive rate above the
    // single-test 5%, but it must stay moderate.
    EXPECT_LT(failures, kTrials / 4);
}

TEST(MultiTest, DetectsHibernatingAttackThatSingleTestMisses) {
    // A long honest prefix dilutes a burst of bads in the whole-history
    // test, but the short suffixes expose it (the very motivation of §3.3).
    BehaviorTestConfig base;
    const BehaviorTest single{base, shared_cal()};
    const MultiTest mt{{}, shared_cal()};
    stats::Rng rng{22};
    int single_detected = 0;
    int multi_detected = 0;
    constexpr int kTrials = 40;
    for (int t = 0; t < kTrials; ++t) {
        auto outcomes = sim::honest_outcomes(4000, 0.95, rng);
        outcomes.insert(outcomes.end(), 20, std::uint8_t{0});
        const std::span<const std::uint8_t> view{outcomes};
        if (!single.test(view).passed) ++single_detected;
        if (!mt.test(view).passed) ++multi_detected;
    }
    EXPECT_GT(multi_detected, single_detected);
    EXPECT_GT(multi_detected, kTrials * 3 / 4);
}

TEST(MultiTest, IncrementalEqualsNaive) {
    // The O(n) incremental implementation must agree with the O(n^2)
    // reference bit-for-bit on every verdict and statistic.
    MultiTestConfig config;
    config.collect_details = true;
    config.stop_on_failure = false;
    const MultiTest mt{config, shared_cal()};
    stats::Rng rng{23};
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint8_t> outcomes;
        const auto n = static_cast<std::size_t>(31 + rng.uniform_int(std::uint64_t{500}));
        const double p = 0.5 + 0.5 * rng.uniform();
        outcomes = sim::honest_outcomes(n, p, rng);
        if (trial % 3 == 0) {  // sprinkle attack bursts
            outcomes.insert(outcomes.end(), 15, std::uint8_t{0});
        }
        const std::span<const std::uint8_t> view{outcomes};
        const auto fast = mt.test(view);
        const auto slow = mt.test_naive(view);
        ASSERT_EQ(fast.passed, slow.passed) << "trial " << trial;
        ASSERT_EQ(fast.stages_run, slow.stages_run);
        ASSERT_EQ(fast.details.size(), slow.details.size());
        for (std::size_t s = 0; s < fast.details.size(); ++s) {
            ASSERT_EQ(fast.details[s].passed, slow.details[s].passed);
            ASSERT_DOUBLE_EQ(fast.details[s].distance, slow.details[s].distance);
            ASSERT_DOUBLE_EQ(fast.details[s].threshold, slow.details[s].threshold);
            ASSERT_DOUBLE_EQ(fast.details[s].p_hat, slow.details[s].p_hat);
            ASSERT_EQ(fast.details[s].windows, slow.details[s].windows);
        }
        ASSERT_EQ(fast.failed_suffix_length, slow.failed_suffix_length);
        ASSERT_DOUBLE_EQ(fast.min_margin, slow.min_margin);
    }
}

TEST(MultiTest, IncrementalEqualsNaiveOnFeedbacks) {
    const MultiTest mt{{}, shared_cal()};
    stats::Rng rng{24};
    const auto history = sim::honest_history(457, 0.88, rng);
    const auto fast = mt.test(history.view());
    const auto slow = mt.test_naive(history.view());
    EXPECT_EQ(fast.passed, slow.passed);
    EXPECT_EQ(fast.stages_run, slow.stages_run);
    EXPECT_DOUBLE_EQ(fast.min_margin, slow.min_margin);
}

TEST(MultiTest, StopOnFailureShortensRun) {
    MultiTestConfig stopping;
    stopping.stop_on_failure = true;
    MultiTestConfig full;
    full.stop_on_failure = false;
    const MultiTest mt_stop{stopping, shared_cal()};
    const MultiTest mt_full{full, shared_cal()};

    stats::Rng rng{25};
    auto outcomes = sim::honest_outcomes(400, 0.95, rng);
    outcomes.insert(outcomes.end(), 25, std::uint8_t{0});
    const std::span<const std::uint8_t> view{outcomes};
    const auto stopped = mt_stop.test(view);
    const auto complete = mt_full.test(view);
    ASSERT_FALSE(stopped.passed);
    ASSERT_FALSE(complete.passed);
    EXPECT_LE(stopped.stages_run, complete.stages_run);
    EXPECT_EQ(stopped.failed_suffix_length, complete.failed_suffix_length);
}

TEST(MultiTest, FailedSuffixLengthIsShortestFailing) {
    MultiTestConfig config;
    config.collect_details = true;
    config.stop_on_failure = false;
    const MultiTest mt{config, shared_cal()};
    stats::Rng rng{26};
    auto outcomes = sim::honest_outcomes(300, 0.95, rng);
    outcomes.insert(outcomes.end(), 25, std::uint8_t{0});
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    ASSERT_FALSE(result.passed);
    ASSERT_TRUE(result.failed_suffix_length.has_value());
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_FALSE(result.failure->passed);
    // Stages run shortest-first; the recorded failure must be the first
    // (shortest) failing suffix.
    std::size_t first_failing_stage = result.details.size();
    for (std::size_t s = 0; s < result.details.size(); ++s) {
        if (!result.details[s].passed) {
            first_failing_stage = s;
            break;
        }
    }
    ASSERT_LT(first_failing_stage, result.details.size());
    const std::size_t n = outcomes.size();
    const std::size_t stages = result.stages_run;
    const std::size_t expected_len =
        n - (stages - 1 - first_failing_stage) * mt.config().step;
    EXPECT_EQ(*result.failed_suffix_length, expected_len);
}

TEST(MultiTest, MinMarginReflectsTightestStage) {
    MultiTestConfig config;
    config.collect_details = true;
    config.stop_on_failure = false;
    const MultiTest mt{config, shared_cal()};
    stats::Rng rng{27};
    const auto outcomes = sim::honest_outcomes(500, 0.9, rng);
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    double expected = std::numeric_limits<double>::infinity();
    for (const auto& d : result.details) expected = std::min(expected, d.margin());
    EXPECT_DOUBLE_EQ(result.min_margin, expected);
}

TEST(MultiTest, CustomStepRespected) {
    MultiTestConfig config;
    config.step = 50;
    config.collect_details = true;
    config.stop_on_failure = false;
    const MultiTest mt{config, shared_cal()};
    const std::vector<std::uint8_t> outcomes(230, 1);
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    // Suffixes 230, 180, 130, 80, 30: 5 stages (>= 30 transactions each).
    EXPECT_EQ(result.stages_run, 5u);
}

TEST(MultiTest, AllGoodLongHistoryPasses) {
    const MultiTest mt{{}, shared_cal()};
    const std::vector<std::uint8_t> outcomes(1000, 1);
    EXPECT_TRUE(mt.test(std::span<const std::uint8_t>{outcomes}).passed);
}

}  // namespace
}  // namespace hpr::core
