// Unit tests for credibility-weighted trust (repsys/credibility.h).

#include "repsys/credibility.h"

#include <gtest/gtest.h>

namespace hpr::repsys {
namespace {

Feedback fb(Timestamp t, EntityId server, EntityId client, bool good) {
    return Feedback{t, server, client,
                    good ? Rating::kPositive : Rating::kNegative};
}

TEST(Credibility, EvaluateWithUniformCredibilityIsAverage) {
    const std::vector<Feedback> feedbacks{fb(1, 1, 10, true), fb(2, 1, 11, true),
                                          fb(3, 1, 12, false), fb(4, 1, 13, true)};
    const CredibilityConfig config;
    const double trust =
        CredibilityWeightedTrust::evaluate(feedbacks, {}, config);
    EXPECT_NEAR(trust, 0.75, 1e-12);
}

TEST(Credibility, ZeroWeightFallsBackToPrior) {
    const std::vector<Feedback> feedbacks{fb(1, 1, 10, true)};
    std::map<EntityId, double> credibility{{10, 0.0}};
    CredibilityConfig config;
    config.prior = 0.42;
    EXPECT_EQ(CredibilityWeightedTrust::evaluate(feedbacks, credibility, config),
              0.42);
    EXPECT_EQ(CredibilityWeightedTrust::evaluate({}, {}, config), 0.42);
}

TEST(Credibility, DistrustedIssuersCountLess) {
    // Two feedbacks disagree; the trusted issuer's positive dominates.
    const std::vector<Feedback> feedbacks{fb(1, 1, 10, true), fb(2, 1, 11, false)};
    const std::map<EntityId, double> credibility{{10, 0.9}, {11, 0.1}};
    const double trust =
        CredibilityWeightedTrust::evaluate(feedbacks, credibility, {});
    EXPECT_NEAR(trust, 0.9, 1e-12);
}

TEST(Credibility, ComputeRejectsBadConfig) {
    const FeedbackStore store;
    CredibilityConfig bad;
    bad.iterations = 0;
    EXPECT_THROW((void)CredibilityWeightedTrust::compute(store, bad),
                 std::invalid_argument);
    bad = {};
    bad.default_credibility = 1.4;
    EXPECT_THROW((void)CredibilityWeightedTrust::compute(store, bad),
                 std::invalid_argument);
}

TEST(Credibility, FixedPointMatchesAverageWhenIssuersAreNotServers) {
    // When no issuer is itself a rated server, every issuer keeps the
    // default credibility, so the weighted trust equals the plain average.
    FeedbackStore store;
    store.ingest_batch({fb(1, 1, 100, true), fb(2, 1, 101, false),
                        fb(3, 1, 102, true), fb(4, 1, 103, true)});
    const auto trust = CredibilityWeightedTrust::compute(store);
    ASSERT_EQ(trust.size(), 1u);
    EXPECT_NEAR(trust.at(1), 0.75, 1e-12);
}

TEST(Credibility, BadlyRatedServersLoseInfluenceAsIssuers) {
    // Server 5 is rated terribly by many independent clients; server 5 (as
    // a client) showers server 1 with positives while good-reputation
    // client-servers 6 and 7 rate server 1 negatively.  After the fixed
    // point, server 1's trust must be dominated by 6/7's negatives.
    FeedbackStore store;
    Timestamp t = 1;
    for (EntityId c = 100; c < 120; ++c) store.submit(fb(t++, 5, c, false));
    for (EntityId c = 100; c < 120; ++c) store.submit(fb(t++, 6, c, true));
    for (EntityId c = 100; c < 120; ++c) store.submit(fb(t++, 7, c, true));
    for (int i = 0; i < 10; ++i) store.submit(fb(t++, 1, 5, true));
    store.submit(fb(t++, 1, 6, false));
    store.submit(fb(t++, 1, 7, false));

    const auto trust = CredibilityWeightedTrust::compute(store);
    EXPECT_LT(trust.at(5), 0.05);
    EXPECT_GT(trust.at(6), 0.95);
    // Plain average of server 1 would be 10/12 = 0.83; credibility
    // weighting flips it below one half.
    EXPECT_LT(trust.at(1), 0.5);
}

TEST(Credibility, MoreIterationsConverge) {
    FeedbackStore store;
    Timestamp t = 1;
    for (EntityId c = 100; c < 110; ++c) store.submit(fb(t++, 2, c, true));
    for (int i = 0; i < 6; ++i) store.submit(fb(t++, 1, 2, i % 2 == 0));
    CredibilityConfig five;
    five.iterations = 5;
    CredibilityConfig six;
    six.iterations = 6;
    const auto a = CredibilityWeightedTrust::compute(store, five);
    const auto b = CredibilityWeightedTrust::compute(store, six);
    for (const auto& [server, value] : a) {
        EXPECT_NEAR(value, b.at(server), 1e-9) << server;
    }
}

}  // namespace
}  // namespace hpr::repsys
