// Unit tests for change-point detection and drift-tolerant testing
// (core/changepoint.h).

#include "core/changepoint.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/generators.h"

namespace hpr::core {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = make_calibrator(BehaviorTestConfig{});
    return cal;
}

std::vector<std::uint8_t> two_regime(std::size_t n1, double p1, std::size_t n2,
                                     double p2, stats::Rng& rng) {
    auto outcomes = sim::honest_outcomes(n1, p1, rng);
    const auto second = sim::honest_outcomes(n2, p2, rng);
    outcomes.insert(outcomes.end(), second.begin(), second.end());
    return outcomes;
}

TEST(ChangePointDetector, RejectsBadConfig) {
    ChangePointConfig bad;
    bad.window_size = 0;
    EXPECT_THROW(ChangePointDetector{bad}, std::invalid_argument);
    bad = {};
    bad.min_segment_windows = 0;
    EXPECT_THROW(ChangePointDetector{bad}, std::invalid_argument);
    bad = {};
    bad.penalty_factor = -1.0;
    EXPECT_THROW(ChangePointDetector{bad}, std::invalid_argument);
}

TEST(ChangePointDetector, StationaryStreamHasOneSegment) {
    const ChangePointDetector detector;
    stats::Rng rng{911};
    int spurious = 0;
    for (int trial = 0; trial < 30; ++trial) {
        const auto outcomes = sim::honest_outcomes(600, 0.9, rng);
        const auto segments =
            detector.segment(std::span<const std::uint8_t>{outcomes});
        ASSERT_GE(segments.size(), 1u);
        if (segments.size() > 1) ++spurious;
    }
    EXPECT_LE(spurious, 3);
}

TEST(ChangePointDetector, FindsAnObviousShift) {
    const ChangePointDetector detector;
    stats::Rng rng{912};
    const auto outcomes = two_regime(400, 0.95, 400, 0.6, rng);
    const auto change_points =
        detector.detect(std::span<const std::uint8_t>{outcomes});
    ASSERT_EQ(change_points.size(), 1u);
    // The shift is at window 40; allow a couple of windows of slack.
    EXPECT_NEAR(static_cast<double>(change_points[0].window_index), 40.0, 3.0);
    EXPECT_GT(change_points[0].p_before, change_points[0].p_after);
    EXPECT_GT(change_points[0].gain, 0.0);
}

TEST(ChangePointDetector, SegmentsPartitionTheWindows) {
    const ChangePointDetector detector;
    stats::Rng rng{913};
    const auto outcomes = two_regime(300, 0.95, 300, 0.7, rng);
    const auto segments = detector.segment(std::span<const std::uint8_t>{outcomes});
    ASSERT_GE(segments.size(), 2u);
    EXPECT_EQ(segments.front().begin_window, 0u);
    EXPECT_EQ(segments.back().end_window, 60u);
    for (std::size_t i = 1; i < segments.size(); ++i) {
        EXPECT_EQ(segments[i].begin_window, segments[i - 1].end_window);
    }
    for (const Segment& s : segments) {
        EXPECT_GE(s.windows(), detector.config().min_segment_windows);
        EXPECT_GE(s.p, 0.0);
        EXPECT_LE(s.p, 1.0);
    }
}

TEST(ChangePointDetector, FindsMultipleShifts) {
    const ChangePointDetector detector;
    stats::Rng rng{914};
    auto outcomes = two_regime(300, 0.95, 300, 0.55, rng);
    const auto third = sim::honest_outcomes(300, 0.9, rng);
    outcomes.insert(outcomes.end(), third.begin(), third.end());
    const auto change_points =
        detector.detect(std::span<const std::uint8_t>{outcomes});
    EXPECT_EQ(change_points.size(), 2u);
    // Ascending order by construction.
    for (std::size_t i = 1; i < change_points.size(); ++i) {
        EXPECT_LT(change_points[i - 1].window_index, change_points[i].window_index);
    }
}

TEST(ChangePointDetector, ShortHistoryHasNoSplits) {
    const ChangePointDetector detector;
    const std::vector<std::uint32_t> counts{9, 10, 8, 9, 2};  // < 2*min_segment
    EXPECT_TRUE(detector.segment_windows(counts).size() == 1 ||
                detector.segment_windows(counts).empty());
    const std::vector<std::uint32_t> empty;
    EXPECT_TRUE(detector.segment_windows(empty).empty());
}

TEST(ChangePointDetector, MaxChangePointsCaps) {
    ChangePointConfig config;
    config.max_change_points = 1;
    const ChangePointDetector detector{config};
    stats::Rng rng{915};
    auto outcomes = two_regime(300, 0.95, 300, 0.5, rng);
    const auto third = sim::honest_outcomes(300, 0.9, rng);
    outcomes.insert(outcomes.end(), third.begin(), third.end());
    EXPECT_LE(detector.detect(std::span<const std::uint8_t>{outcomes}).size(), 1u);
}

TEST(ChangePointDetector, HigherPenaltyFindsFewerSplits) {
    ChangePointConfig strict;
    strict.penalty_factor = 50.0;
    const ChangePointDetector lenient;
    const ChangePointDetector conservative{strict};
    stats::Rng rng{916};
    const auto outcomes = two_regime(300, 0.95, 300, 0.8, rng);
    const std::span<const std::uint8_t> view{outcomes};
    EXPECT_GE(lenient.detect(view).size(), conservative.detect(view).size());
}

TEST(AdaptiveBehaviorTest, HonestDriftPassesWhereStaticTestFails) {
    // An honest provider whose uncontrollable quality dropped 0.95 -> 0.75
    // mid-history: the pooled static test flags the mixture, the adaptive
    // test segments it and passes both regimes.
    const BehaviorTest static_test{{}, shared_cal()};
    const AdaptiveBehaviorTest adaptive{{}, {}, shared_cal()};
    stats::Rng rng{917};
    int static_flags = 0;
    int adaptive_flags = 0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
        const auto outcomes = two_regime(400, 0.95, 400, 0.75, rng);
        const std::span<const std::uint8_t> view{outcomes};
        if (!static_test.test(view).passed) ++static_flags;
        const auto result = adaptive.test(view);
        if (!result.passed) ++adaptive_flags;
    }
    EXPECT_GT(static_flags, kTrials / 2);
    EXPECT_LT(adaptive_flags, kTrials / 3);
}

TEST(AdaptiveBehaviorTest, RigidManipulationStillFails) {
    // One bad per window, rigidly: no amount of segmentation makes a point
    // mass look binomial.
    const AdaptiveBehaviorTest adaptive{{}, {}, shared_cal()};
    std::vector<std::uint8_t> rigid;
    for (int w = 0; w < 60; ++w) {
        rigid.push_back(0);
        for (int i = 0; i < 9; ++i) rigid.push_back(1);
    }
    const auto result = adaptive.test(std::span<const std::uint8_t>{rigid});
    ASSERT_TRUE(result.sufficient);
    EXPECT_FALSE(result.passed);
    EXPECT_TRUE(std::any_of(result.per_segment.begin(), result.per_segment.end(),
                            [](const BehaviorTestResult& r) { return !r.passed; }));
}

TEST(AdaptiveBehaviorTest, ShortHistoryInsufficient) {
    const AdaptiveBehaviorTest adaptive{{}, {}, shared_cal()};
    const std::vector<std::uint8_t> outcomes(25, 1);
    const auto result = adaptive.test(std::span<const std::uint8_t>{outcomes});
    EXPECT_FALSE(result.sufficient);
    EXPECT_TRUE(result.passed);
    EXPECT_TRUE(result.segments.empty());
}

TEST(AdaptiveBehaviorTest, ReportsSegmentsAlignedWithResults) {
    const AdaptiveBehaviorTest adaptive{{}, {}, shared_cal()};
    stats::Rng rng{918};
    const auto outcomes = two_regime(300, 0.95, 300, 0.6, rng);
    const auto result = adaptive.test(std::span<const std::uint8_t>{outcomes});
    ASSERT_TRUE(result.sufficient);
    EXPECT_EQ(result.segments.size(), result.per_segment.size());
    ASSERT_GE(result.segments.size(), 2u);
    EXPECT_GT(result.segments.front().p, result.segments.back().p);
}

TEST(AdaptiveBehaviorTest, FeedbackOverloadAgrees) {
    stats::Rng rng{919};
    const auto history = sim::honest_history(400, 0.9, rng);
    std::vector<std::uint8_t> outcomes;
    for (const auto& f : history.feedbacks()) outcomes.push_back(f.good() ? 1 : 0);
    const AdaptiveBehaviorTest adaptive{{}, {}, shared_cal()};
    EXPECT_EQ(adaptive.test(history.view()).passed,
              adaptive.test(std::span<const std::uint8_t>{outcomes}).passed);
}

}  // namespace
}  // namespace hpr::core
