// Unit tests for the streaming screener (core/online.h).

#include "core/online.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/multi_test.h"
#include "obs/trace.h"
#include "sim/generators.h"
#include "tracer_guard.h"

namespace hpr::core {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = make_calibrator(BehaviorTestConfig{});
    return cal;
}

TEST(OnlineScreener, RejectsZeroPatienceOrRecovery) {
    OnlineScreenerConfig config;
    config.patience = 0;
    EXPECT_THROW(OnlineScreener{config}, std::invalid_argument);
    config = {};
    config.recovery = 0;
    EXPECT_THROW(OnlineScreener{config}, std::invalid_argument);
}

TEST(OnlineScreener, StartsInsufficient) {
    OnlineScreener screener{{}, shared_cal()};
    EXPECT_EQ(screener.state(), StreamState::kInsufficient);
    EXPECT_EQ(screener.transactions(), 0u);
    EXPECT_EQ(screener.windows(), 0u);
    EXPECT_TRUE(screener.last_evaluation_passed());
    for (int i = 0; i < 29; ++i) screener.observe(true);
    // 2 complete windows < min_windows(3): still insufficient, 0 evals.
    EXPECT_EQ(screener.state(), StreamState::kInsufficient);
    EXPECT_EQ(screener.evaluations(), 0u);
    EXPECT_EQ(screener.windows(), 2u);
}

TEST(OnlineScreener, HonestStreamStaysClear) {
    OnlineScreenerConfig config;
    config.test.bonferroni = true;
    OnlineScreener screener{config, shared_cal()};
    stats::Rng rng{901};
    for (int i = 0; i < 1000; ++i) screener.observe(rng.bernoulli(0.93));
    EXPECT_EQ(screener.state(), StreamState::kClear);
    EXPECT_EQ(screener.transactions(), 1000u);
    EXPECT_EQ(screener.windows(), 100u);
    EXPECT_EQ(screener.evaluations(), 98u);  // one per window from the 3rd on
    EXPECT_NEAR(screener.p_hat(), 0.93, 0.05);
}

TEST(OnlineScreener, BurstAttackFlipsToSuspicious) {
    OnlineScreener screener{{}, shared_cal()};
    stats::Rng rng{902};
    for (int i = 0; i < 600; ++i) screener.observe(rng.bernoulli(0.95));
    ASSERT_EQ(screener.state(), StreamState::kClear);
    std::size_t bads_until_flag = 0;
    while (screener.state() != StreamState::kSuspicious && bads_until_flag < 100) {
        screener.observe(false);
        ++bads_until_flag;
    }
    EXPECT_EQ(screener.state(), StreamState::kSuspicious);
    // The paper's goal: bound how many bads slip through a short period.
    EXPECT_LE(bads_until_flag, 40u);
}

TEST(OnlineScreener, PatienceDelaysFlagging) {
    OnlineScreenerConfig eager;
    eager.patience = 1;
    OnlineScreenerConfig tolerant;
    tolerant.patience = 4;

    const auto bads_to_flag = [&](const OnlineScreenerConfig& config) {
        OnlineScreener screener{config, shared_cal()};
        stats::Rng rng{903};
        for (int i = 0; i < 600; ++i) screener.observe(rng.bernoulli(0.95));
        std::size_t bads = 0;
        while (screener.state() != StreamState::kSuspicious && bads < 200) {
            screener.observe(false);
            ++bads;
        }
        return bads;
    };
    EXPECT_LT(bads_to_flag(eager), bads_to_flag(tolerant));
}

TEST(OnlineScreener, RecoveryClearsAfterSustainedPassing) {
    OnlineScreenerConfig config;
    config.recovery = 2;
    OnlineScreener screener{config, shared_cal()};
    stats::Rng rng{904};
    for (int i = 0; i < 400; ++i) screener.observe(rng.bernoulli(0.95));
    for (int i = 0; i < 30; ++i) screener.observe(false);
    ASSERT_EQ(screener.state(), StreamState::kSuspicious);
    // Resume good service; eventually the suffix ladder passes again and,
    // after `recovery` consecutive passing evaluations, the state clears.
    int goods = 0;
    while (screener.state() == StreamState::kSuspicious && goods < 30000) {
        screener.observe(rng.bernoulli(0.95));
        ++goods;
    }
    EXPECT_EQ(screener.state(), StreamState::kClear);
    EXPECT_GT(goods, 50);  // recovery is deliberately slow
}

TEST(OnlineScreener, MatchesBatchVerdictOnAlignedStreams) {
    // With windows aligned (stream length a multiple of m) the streaming
    // evaluation and the batch multi-test see identical window counts, so
    // the final evaluation verdict must match the batch verdict.
    MultiTestConfig batch_config;
    batch_config.stop_on_failure = false;
    const MultiTest batch{batch_config, shared_cal()};
    stats::Rng rng{905};
    for (int trial = 0; trial < 10; ++trial) {
        const auto outcomes = sim::honest_outcomes(500, 0.9, rng);
        OnlineScreener screener{{}, shared_cal()};
        for (const auto o : outcomes) screener.observe(o != 0);
        const auto batch_result =
            batch.test(std::span<const std::uint8_t>{outcomes});
        ASSERT_EQ(screener.last_evaluation_passed(), batch_result.passed)
            << "trial " << trial;
    }
}

TEST(OnlineScreener, FeedbackOverloadObservesGoodness) {
    OnlineScreener screener{{}, shared_cal()};
    screener.observe(repsys::Feedback{1, 1, 2, repsys::Rating::kPositive});
    screener.observe(repsys::Feedback{2, 1, 2, repsys::Rating::kNegative});
    EXPECT_EQ(screener.transactions(), 2u);
}

TEST(OnlineScreener, LargerWindowConfigs) {
    OnlineScreenerConfig config;
    config.test.base.window_size = 25;
    OnlineScreener screener{config, shared_cal()};
    stats::Rng rng{907};
    for (int i = 0; i < 1000; ++i) screener.observe(rng.bernoulli(0.9));
    EXPECT_EQ(screener.windows(), 40u);
    EXPECT_EQ(screener.transactions(), 1000u);
    EXPECT_NE(screener.state(), StreamState::kInsufficient);
}

TEST(OnlineScreener, PHatTracksStream) {
    OnlineScreener screener{{}, shared_cal()};
    for (int i = 0; i < 100; ++i) screener.observe(i % 10 != 0);  // 90% good
    EXPECT_NEAR(screener.p_hat(), 0.9, 1e-12);
    OnlineScreener empty{{}, shared_cal()};
    EXPECT_EQ(empty.p_hat(), 0.0);
}

TEST(OnlineScreener, HorizonValidation) {
    OnlineScreenerConfig config;
    config.max_windows = 2;  // below min_windows(3): never evaluable
    EXPECT_THROW(OnlineScreener{config}, std::invalid_argument);
    config.max_windows = config.test.base.min_windows;  // smallest legal horizon
    EXPECT_NO_THROW((OnlineScreener{config, shared_cal()}));
    config.max_windows = 0;  // unbounded stays allowed
    EXPECT_NO_THROW((OnlineScreener{config, shared_cal()}));
}

TEST(OnlineScreener, RingWrapsAtExactlyMaxWindows) {
    OnlineScreenerConfig config;
    config.max_windows = 4;
    OnlineScreener screener{config, shared_cal()};
    const std::uint32_t m = config.test.base.window_size;
    // First window all-bad, then all-good: once the ring wraps the bad
    // window must fall out of every running total.
    for (std::uint32_t i = 0; i < m; ++i) screener.observe(false);
    for (std::uint32_t i = 0; i < 3 * m; ++i) screener.observe(true);
    EXPECT_EQ(screener.windows(), 4u);
    EXPECT_EQ(screener.retained_windows(), 4u);
    EXPECT_NEAR(screener.p_hat(), 0.75, 1e-12);  // 3m good / 4m retained
    for (std::uint32_t i = 0; i < m; ++i) screener.observe(true);
    // Fifth window: lifetime count advances, retention stays capped, and
    // the all-bad window no longer taints p-hat.
    EXPECT_EQ(screener.windows(), 5u);
    EXPECT_EQ(screener.retained_windows(), 4u);
    EXPECT_NEAR(screener.p_hat(), 1.0, 1e-12);
}

TEST(OnlineScreener, BoundedMatchesUnboundedWithinHorizon) {
    OnlineScreenerConfig bounded_config;
    bounded_config.max_windows = 12;
    OnlineScreenerConfig unbounded_config;
    OnlineScreener bounded{bounded_config, shared_cal()};
    OnlineScreener unbounded{unbounded_config, shared_cal()};
    stats::Rng rng{908};
    const std::size_t horizon_tx =
        bounded_config.max_windows * bounded_config.test.base.window_size;
    for (std::size_t i = 0; i < horizon_tx; ++i) {
        const bool good = rng.bernoulli(0.8);
        bounded.observe(good);
        unbounded.observe(good);
        ASSERT_EQ(bounded.state(), unbounded.state()) << "tx " << i;
        ASSERT_EQ(bounded.p_hat(), unbounded.p_hat()) << "tx " << i;
        ASSERT_EQ(bounded.last_evaluation_passed(),
                  unbounded.last_evaluation_passed())
            << "tx " << i;
    }
}

/// Feed `outcomes` Bernoulli(0.9) outcomes; returns the ladder stage
/// count of every evaluation they trigger, read from the decision record
/// each evaluation traces.
std::vector<std::size_t> traced_stage_counts(OnlineScreener& screener,
                                             stats::Rng& rng,
                                             std::size_t outcomes) {
    std::vector<std::size_t> stages;
    for (std::size_t i = 0; i < outcomes; ++i) {
        screener.observe(rng.bernoulli(0.9));
        for (const obs::DecisionRecord& record :
             obs::default_tracer().ring().drain()) {
            stages.push_back(record.stages.size());
        }
    }
    return stages;
}

TEST(OnlineScreener, BoundedMemoryIsConstantForLife) {
    // Per-feedback work is flat in stream age because the ladder's depth
    // is.  Counted, not timed: every evaluation up to 100x the horizon's
    // stream age runs exactly the stages it ran when the ring first
    // filled.  No stage stops the ladder early, so a count is its depth.
    const test::TracerGuard tracing;
    OnlineScreenerConfig config;
    config.max_windows = 8;
    config.test.stop_on_failure = false;
    const std::size_t horizon_tx =
        config.max_windows * config.test.base.window_size;
    OnlineScreener screener{config, shared_cal()};
    const std::size_t at_birth = screener.memory_bytes();
    stats::Rng rng{909};
    const auto filling = traced_stage_counts(screener, rng, horizon_tx);
    ASSERT_FALSE(filling.empty());
    const std::size_t full_ring_stages = filling.back();
    const auto aging = traced_stage_counts(screener, rng, 99 * horizon_tx);
    ASSERT_EQ(aging.size(), 99 * config.max_windows);  // one per window
    for (std::size_t i = 0; i < aging.size(); ++i) {
        ASSERT_EQ(aging[i], full_ring_stages) << "evaluation " << i;
    }
    EXPECT_EQ(screener.memory_bytes(), at_birth);
    EXPECT_EQ(screener.horizon(), 8u);

    // Without a horizon the ladder deepens with the stream.
    OnlineScreenerConfig unbounded_config;
    unbounded_config.test.stop_on_failure = false;
    OnlineScreener unbounded{unbounded_config, shared_cal()};
    const std::size_t unbounded_birth = unbounded.memory_bytes();
    stats::Rng rng2{910};
    const auto deepening = traced_stage_counts(unbounded, rng2, 25 * horizon_tx);
    ASSERT_FALSE(deepening.empty());
    EXPECT_GT(deepening.back(), full_ring_stages);
    EXPECT_GT(unbounded.memory_bytes(), unbounded_birth);
}

// Pins the documented hysteresis contract (see online.h): from
// kInsufficient the first *passing* evaluation establishes kClear
// immediately, while flagging a never-judged stream still requires
// `patience` consecutive failures.
TEST(OnlineScreener, HysteresisAsymmetryFromInsufficient) {
    // Passing side: three all-good windows -> first evaluation passes ->
    // kClear at once, no recovery streak required.
    OnlineScreener passing{{}, shared_cal()};
    const std::uint32_t m = passing.config().test.base.window_size;
    for (std::uint32_t i = 0; i < 3 * m; ++i) passing.observe(true);
    EXPECT_EQ(passing.evaluations(), 1u);
    EXPECT_EQ(passing.state(), StreamState::kClear);

    // Failing side: alternating all-good / all-bad windows are wildly
    // inconsistent with a Binomial(m, p-hat) player, so every evaluation
    // fails — yet the flag must wait for `patience` of them.
    OnlineScreenerConfig config;
    config.patience = 2;
    OnlineScreener failing{config, shared_cal()};
    for (std::uint32_t i = 0; i < 3 * m; ++i) failing.observe(i / m % 2 == 0);
    ASSERT_EQ(failing.evaluations(), 1u);
    ASSERT_FALSE(failing.last_evaluation_passed());
    EXPECT_EQ(failing.state(), StreamState::kInsufficient)
        << "one failing evaluation must not flag from kInsufficient";
    for (std::uint32_t i = 0; i < m; ++i) failing.observe(false);  // window 4: all-bad
    ASSERT_EQ(failing.evaluations(), 2u);
    EXPECT_EQ(failing.state(), StreamState::kSuspicious)
        << "patience(2) consecutive failures flag from kInsufficient";
}

TEST(OnlineScreener, StreakAccountingIsConsistent) {
    OnlineScreener screener{{}, shared_cal()};
    stats::Rng rng{906};
    for (int i = 0; i < 800; ++i) {
        screener.observe(rng.bernoulli(0.9));
        // Exactly one of the streaks is always zero.
        ASSERT_TRUE(screener.failing_streak() == 0 || screener.passing_streak() == 0);
    }
}

}  // namespace
}  // namespace hpr::core
