// Integration-style tests for the marketplace simulation (sim/market.h).

#include "sim/market.h"

#include <gtest/gtest.h>

namespace hpr::sim {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

std::shared_ptr<const core::TwoPhaseAssessor> make_assessor(core::ScreeningMode mode) {
    core::TwoPhaseConfig config;
    config.mode = mode;
    // Marketplace clients assess servers hundreds of times on growing
    // histories; the family-wise correction keeps honest servers from
    // being ostracized by screening noise.
    config.test.bonferroni = true;
    return std::make_shared<const core::TwoPhaseAssessor>(
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("average")},
        shared_cal());
}

TEST(Strategy, HonestProbabilities) {
    stats::Rng rng{401};
    HonestStrategy always{1.0};
    HonestStrategy never{0.0};
    repsys::TransactionHistory h;
    EXPECT_TRUE(always.serve_well(0, h, rng));
    EXPECT_FALSE(never.serve_well(0, h, rng));
    EXPECT_THROW(HonestStrategy{1.5}, std::invalid_argument);
    EXPECT_NE(always.name().find("honest"), std::string::npos);
}

TEST(Strategy, PeriodicSchedule) {
    stats::Rng rng{402};
    PeriodicStrategy strategy{10, 2};
    repsys::TransactionHistory h;
    // First two of each block of 10 are bad.
    EXPECT_FALSE(strategy.serve_well(0, h, rng));
    EXPECT_FALSE(strategy.serve_well(1, h, rng));
    EXPECT_TRUE(strategy.serve_well(2, h, rng));
    EXPECT_FALSE(strategy.serve_well(10, h, rng));
    EXPECT_TRUE(strategy.serve_well(19, h, rng));
    EXPECT_THROW(PeriodicStrategy(0, 0), std::invalid_argument);
    EXPECT_THROW(PeriodicStrategy(5, 6), std::invalid_argument);
}

TEST(Strategy, HibernatingFlipsAfterPrep) {
    stats::Rng rng{403};
    HibernatingStrategy strategy{5, 1.0};
    repsys::TransactionHistory h;
    for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(strategy.serve_well(i, h, rng));
    for (std::size_t i = 5; i < 10; ++i) EXPECT_FALSE(strategy.serve_well(i, h, rng));
}

TEST(Marketplace, RejectsNullArguments) {
    EXPECT_THROW(Marketplace(MarketConfig{}, nullptr), std::invalid_argument);
    Marketplace market{MarketConfig{}, make_assessor(core::ScreeningMode::kNone)};
    EXPECT_THROW(market.add_server(nullptr), std::invalid_argument);
    EXPECT_THROW(market.run(), std::logic_error);
}

TEST(Marketplace, HonestOnlyMarketServesEveryone) {
    MarketConfig config;
    config.steps = 300;
    config.trust_threshold = 0.8;
    Marketplace market{config, make_assessor(core::ScreeningMode::kMulti)};
    market.add_server(std::make_unique<HonestStrategy>(0.95));
    market.add_server(std::make_unique<HonestStrategy>(0.97));
    market.run();
    const auto reports = market.report();
    ASSERT_EQ(reports.size(), 2u);
    std::size_t total_tx = 0;
    for (const auto& [id, report] : reports) {
        EXPECT_FALSE(report.suspicious) << report.strategy;
        EXPECT_GT(report.final_trust, 0.85);
        total_tx += report.transactions;
    }
    // Bootstrap (2 * 60) plus every step: no request goes unserved.
    EXPECT_EQ(total_tx, 2u * config.bootstrap_per_server + config.steps);
}

TEST(Marketplace, ScreeningCutsBadTransactions) {
    // The end-to-end claim of the paper: with behavior testing in the
    // loop, clients suffer fewer bad transactions from adaptive attackers
    // than with a plain trust function.
    const auto run_market = [&](core::ScreeningMode mode) {
        MarketConfig config;
        config.steps = 600;
        config.trust_threshold = 0.85;
        config.seed = 404;
        Marketplace market{config, make_assessor(mode)};
        market.add_server(std::make_unique<HonestStrategy>(0.95));
        market.add_server(std::make_unique<HonestStrategy>(0.93));
        // Hibernating attacker flips right after bootstrap.
        market.add_server(std::make_unique<HibernatingStrategy>(60, 0.96));
        market.run();
        return market.total_bad_suffered();
    };
    const std::size_t without = run_market(core::ScreeningMode::kNone);
    const std::size_t with_multi = run_market(core::ScreeningMode::kMulti);
    EXPECT_LT(with_multi, without);
}

TEST(Marketplace, SuspiciousServerStopsGettingPicked) {
    MarketConfig config;
    config.steps = 400;
    config.trust_threshold = 0.85;
    // A long bootstrap keeps the attacker's average trust above the
    // threshold through its attack burst, so the veto that stops it must
    // come from screening, not from the trust value.
    config.bootstrap_per_server = 200;
    config.seed = 405;
    Marketplace market{config, make_assessor(core::ScreeningMode::kMulti)};
    const auto honest_id = market.add_server(std::make_unique<HonestStrategy>(0.95));
    const auto attacker_id =
        market.add_server(std::make_unique<HibernatingStrategy>(200, 0.96));
    market.run();
    const auto reports = market.report();
    const auto& attacker = reports.at(attacker_id);
    const auto& honest = reports.at(honest_id);
    // Once the attacker turns, screening rejects it while the honest
    // server keeps transacting.
    EXPECT_GT(attacker.rejected_screen, 0u);
    EXPECT_GT(honest.transactions, attacker.transactions);
}

TEST(Marketplace, HistoryAccessorAndBounds) {
    MarketConfig config;
    config.steps = 50;
    Marketplace market{config, make_assessor(core::ScreeningMode::kNone)};
    const auto id = market.add_server(std::make_unique<HonestStrategy>(0.9));
    market.run();
    EXPECT_GE(market.history_of(id).size(), config.bootstrap_per_server);
    EXPECT_THROW((void)market.history_of(999), std::out_of_range);
}

TEST(Marketplace, ExplorationServesVetoedServers) {
    // With exploration, even a server every assessor rejects still gets
    // occasional traffic (and with it, the chance to clear its record).
    const auto run_with = [&](double exploration) {
        MarketConfig config;
        config.steps = 800;
        config.trust_threshold = 0.99;  // nobody passes the threshold
        config.exploration = exploration;
        config.bootstrap_per_server = 40;
        config.seed = 408;
        Marketplace market{config, make_assessor(core::ScreeningMode::kNone)};
        const auto id = market.add_server(std::make_unique<HonestStrategy>(0.9));
        market.run();
        return market.history_of(id).size();
    };
    const std::size_t without = run_with(0.0);
    const std::size_t with = run_with(0.1);
    EXPECT_EQ(without, 40u);  // bootstrap only; every request unserved
    EXPECT_GT(with, 60u);     // explorers kept transacting
}

TEST(Marketplace, ExplorationZeroMatchesLegacyBehavior) {
    MarketConfig config;
    config.steps = 300;
    config.seed = 409;
    ASSERT_EQ(config.exploration, 0.0);  // default stays off
    Marketplace market{config, make_assessor(core::ScreeningMode::kNone)};
    market.add_server(std::make_unique<HonestStrategy>(0.95));
    market.run();
    EXPECT_GT(market.history_of(1).size(), config.bootstrap_per_server);
}

TEST(Strategy, StrategicAttackerUsesTheDefense) {
    const auto assessor = make_assessor(core::ScreeningMode::kMulti);
    StrategicStrategy strategy{assessor, 0.85};
    EXPECT_THROW(StrategicStrategy(nullptr, 0.9), std::invalid_argument);
    stats::Rng rng{412};

    // On an empty history the victim would not accept (prior 0.5 < 0.85):
    // the strategic attacker serves well instead.
    repsys::TransactionHistory history;
    EXPECT_TRUE(strategy.serve_well(0, history, rng));

    // With a long honest record and headroom, it cheats.
    for (int i = 0; i < 400; ++i) {
        history.append(1, static_cast<repsys::EntityId>(100 + i % 20),
                       rng.bernoulli(0.95) ? repsys::Rating::kPositive
                                           : repsys::Rating::kNegative);
    }
    int cheats = 0;
    for (int i = 0; i < 40; ++i) {
        const bool good = strategy.serve_well(history.size(), history, rng);
        history.append(1, static_cast<repsys::EntityId>(200 + i),
                       good ? repsys::Rating::kPositive : repsys::Rating::kNegative);
        if (!good) {
            ++cheats;
            // The defining property: a cheat never leaves the history in a
            // state the defense it consulted would flag.
            ASSERT_TRUE(assessor->screen(history.view()).passed) << "step " << i;
        }
    }
    EXPECT_GT(cheats, 0);
}

TEST(Marketplace, StrategicAttackerConvergesToThresholdRate) {
    // Against the average trust function the informed attacker's
    // steady-state bad rate is pinned at ~(1 - threshold): it cheats the
    // moment the ratio allows and never beyond.  This is the "forced to
    // behave like an honest player" equilibrium of §5 — screening can
    // only push the rate further down, never up.
    const auto bad_ratio = [&](core::ScreeningMode mode) {
        const auto assessor = make_assessor(mode);
        MarketConfig config;
        config.steps = 600;
        config.trust_threshold = 0.85;
        config.bootstrap_per_server = 150;
        config.seed = 413;
        Marketplace market{config, assessor};
        market.add_server(std::make_unique<HonestStrategy>(0.95));
        const auto id = market.add_server(
            std::make_unique<StrategicStrategy>(assessor, 0.85));
        market.run();
        const auto report = market.report().at(id);
        return static_cast<double>(report.bad_served) /
               static_cast<double>(report.transactions);
    };
    const double unscreened = bad_ratio(core::ScreeningMode::kNone);
    EXPECT_GT(unscreened, 0.10);
    EXPECT_LT(unscreened, 0.16);  // ~= 1 - 0.85 plus rounding slack
    const double screened = bad_ratio(core::ScreeningMode::kMulti);
    EXPECT_LT(screened, unscreened + 0.02);
}

TEST(Strategy, WhitewashCyclesIdentities) {
    WhitewashStrategy strategy{5, 2, 1.0};
    stats::Rng rng{410};
    repsys::TransactionHistory h;
    // Honest for 5 transactions, bad for the next 2, then reset.
    for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(strategy.serve_well(i, h, rng));
    EXPECT_FALSE(strategy.serve_well(5, h, rng));
    for (int i = 0; i < 6; ++i) h.append(1, 2, repsys::Rating::kPositive);
    EXPECT_FALSE(strategy.reset_identity(h));  // budget not spent yet
    h.append(1, 2, repsys::Rating::kNegative);
    EXPECT_TRUE(strategy.reset_identity(h));   // 7 = prep + attacks
    EXPECT_THROW(WhitewashStrategy(5, 0, 1.0), std::invalid_argument);
}

TEST(Marketplace, WhitewasherEvadesScreeningButNotNewcomerPolicy) {
    const auto run_with = [&](NewcomerPolicy policy) {
        MarketConfig config;
        config.steps = 600;
        config.trust_threshold = 0.85;
        config.bootstrap_per_server = 40;
        config.newcomer_policy = policy;
        // Without explorers a reset identity would never transact at all;
        // with them, fresh identities can rebuild — if clients let them.
        config.exploration = 0.1;
        config.seed = 411;
        Marketplace market{config, make_assessor(core::ScreeningMode::kMulti)};
        market.add_server(std::make_unique<HonestStrategy>(0.95));
        // Short con: 35 honest transactions, 5 cheats, new identity —
        // never enough history for screening to bite.
        const auto ww_id =
            market.add_server(std::make_unique<WhitewashStrategy>(35, 5, 0.96));
        market.run();
        return std::make_pair(market.report().at(ww_id).bad_served,
                              market.report().at(ww_id));
    };
    const auto [bad_lenient, report_lenient] = run_with(NewcomerPolicy::kTrustValue);
    const auto [bad_strict, report_strict] = run_with(NewcomerPolicy::kReject);
    // Lenient clients keep feeding fresh identities; the strict policy
    // starves them (they only see exploration-free bootstrap traffic).
    EXPECT_GT(report_lenient.identity_resets, 0u);
    EXPECT_LT(bad_strict, bad_lenient);
    EXPECT_GT(report_strict.rejected_newcomer, 0u);
}

TEST(Marketplace, DeterministicPerSeed) {
    const auto run_once = [&] {
        MarketConfig config;
        config.steps = 200;
        config.seed = 406;
        Marketplace market{config, make_assessor(core::ScreeningMode::kMulti)};
        market.add_server(std::make_unique<HonestStrategy>(0.9));
        market.add_server(std::make_unique<PeriodicStrategy>(10, 1));
        market.run();
        return market.total_bad_suffered();
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hpr::sim
