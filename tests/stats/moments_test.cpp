// Unit tests for RunningMoments (stats/moments.h).

#include "stats/moments.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace hpr::stats {
namespace {

TEST(RunningMoments, EmptyStateIsNeutral) {
    const RunningMoments m;
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.mean(), 0.0);
    EXPECT_EQ(m.variance(), 0.0);
    EXPECT_EQ(m.std_error(), 0.0);
}

TEST(RunningMoments, SingleValue) {
    RunningMoments m;
    m.add(3.5);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_EQ(m.mean(), 3.5);
    EXPECT_EQ(m.variance(), 0.0);
    EXPECT_EQ(m.min(), 3.5);
    EXPECT_EQ(m.max(), 3.5);
}

TEST(RunningMoments, MatchesDirectComputation) {
    const std::vector<double> values{1.0, 4.0, 4.0, 6.0, 10.0, -2.0};
    RunningMoments m;
    for (double v : values) m.add(v);

    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size() - 1);

    EXPECT_NEAR(m.mean(), mean, 1e-12);
    EXPECT_NEAR(m.variance(), var, 1e-12);
    EXPECT_NEAR(m.stddev(), std::sqrt(var), 1e-12);
    EXPECT_EQ(m.min(), -2.0);
    EXPECT_EQ(m.max(), 10.0);
}

TEST(RunningMoments, StdErrorShrinksWithSamples) {
    RunningMoments few;
    RunningMoments many;
    for (int i = 0; i < 10; ++i) few.add(i % 2 == 0 ? 1.0 : -1.0);
    for (int i = 0; i < 1000; ++i) many.add(i % 2 == 0 ? 1.0 : -1.0);
    EXPECT_GT(few.std_error(), many.std_error());
}

TEST(RunningMoments, MergeEqualsSequential) {
    const std::vector<double> first{1.0, 2.0, 3.0};
    const std::vector<double> second{10.0, 20.0, 30.0, 40.0};

    RunningMoments a;
    for (double v : first) a.add(v);
    RunningMoments b;
    for (double v : second) b.add(v);
    a.merge(b);

    RunningMoments sequential;
    for (double v : first) sequential.add(v);
    for (double v : second) sequential.add(v);

    EXPECT_EQ(a.count(), sequential.count());
    EXPECT_NEAR(a.mean(), sequential.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), sequential.variance(), 1e-10);
    EXPECT_EQ(a.min(), sequential.min());
    EXPECT_EQ(a.max(), sequential.max());
}

TEST(RunningMoments, MergeWithEmptySides) {
    RunningMoments filled;
    filled.add(1.0);
    filled.add(2.0);

    RunningMoments empty;
    RunningMoments copy = filled;
    copy.merge(empty);
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_NEAR(copy.mean(), 1.5, 1e-12);

    RunningMoments other;
    other.merge(filled);
    EXPECT_EQ(other.count(), 2u);
    EXPECT_NEAR(other.mean(), 1.5, 1e-12);
}

TEST(RunningMoments, NumericallyStableOnLargeOffsets) {
    RunningMoments m;
    for (int i = 0; i < 1000; ++i) m.add(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
    EXPECT_NEAR(m.mean(), 1e9, 1e-3);
    EXPECT_NEAR(m.variance(), 1.001, 0.01);  // ~1 for the +-1 alternation
}

}  // namespace
}  // namespace hpr::stats
