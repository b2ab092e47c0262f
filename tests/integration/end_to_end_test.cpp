// End-to-end integration tests exercising the full pipeline:
// workload generation -> CSV persistence -> history -> two-phase
// assessment, plus cross-library consistency checks.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/behavior_test.h"
#include "core/config.h"
#include "core/multi_test.h"
#include "core/two_phase.h"
#include "repsys/history.h"
#include "repsys/io.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "sim/generators.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

core::TwoPhaseAssessor default_assessor(core::ScreeningMode mode,
                                        const std::string& trust = "average",
                                        bool collusion = false) {
    core::TwoPhaseConfig config;
    config.mode = mode;
    config.collusion_resilient = collusion;
    return core::TwoPhaseAssessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function(trust)},
        shared_cal()};
}

TEST(EndToEnd, GenerateSaveLoadAssessRoundTrip) {
    stats::Rng rng{501};
    const auto history = sim::honest_history(500, 0.93, rng);
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_e2e.csv").string();
    repsys::save_csv(path, history);
    const repsys::TransactionHistory loaded = repsys::load_csv(path);
    std::remove(path.c_str());
    ASSERT_EQ(loaded.size(), history.size());

    const auto assessor = default_assessor(core::ScreeningMode::kMulti);
    const core::Assessment direct = assessor.assess(history);
    const core::Assessment from_disk = assessor.assess(loaded);
    EXPECT_EQ(direct.verdict, from_disk.verdict);
    EXPECT_EQ(direct.trust, from_disk.trust);
    EXPECT_EQ(direct.verdict, core::Verdict::kAssessed);
}

TEST(EndToEnd, AttackLifecycleIsCaughtAtTheRightMoment) {
    // An attacker that behaves honestly passes; the moment it launches a
    // hibernating burst it flips to suspicious; trust output disappears.
    stats::Rng rng{502};
    const auto assessor = default_assessor(core::ScreeningMode::kMulti);
    repsys::TransactionHistory history;
    for (int i = 0; i < 400; ++i) {
        history.append(1, static_cast<repsys::EntityId>(100 + i % 40),
                       rng.bernoulli(0.95) ? repsys::Rating::kPositive
                                           : repsys::Rating::kNegative);
    }
    ASSERT_EQ(assessor.assess(history).verdict, core::Verdict::kAssessed);

    int flagged_at = -1;
    for (int i = 0; i < 40; ++i) {
        history.append(1, static_cast<repsys::EntityId>(200 + i),
                       repsys::Rating::kNegative);
        if (assessor.assess(history).verdict == core::Verdict::kSuspicious) {
            flagged_at = i + 1;
            break;
        }
    }
    ASSERT_GT(flagged_at, 0) << "attack was never flagged";
    // The paper's goal: bound the number of bad transactions that evade
    // detection in a short period; a burst must be caught well before 40.
    EXPECT_LE(flagged_at, 30);
}

TEST(EndToEnd, RecoverySlowAfterDetection) {
    // After being flagged, a burst attacker stays suspicious for a while
    // even if it resumes good service (old windows keep failing suffixes).
    stats::Rng rng{503};
    const auto assessor = default_assessor(core::ScreeningMode::kMulti);
    auto history = sim::hibernating_history(400, 25, 0.95, rng);
    ASSERT_EQ(assessor.assess(history).verdict, core::Verdict::kSuspicious);
    int goods_until_clear = 0;
    while (assessor.assess(history).verdict == core::Verdict::kSuspicious &&
           goods_until_clear < 2000) {
        history.append(1, 7, repsys::Rating::kPositive);
        ++goods_until_clear;
    }
    EXPECT_GT(goods_until_clear, 20);
}

TEST(EndToEnd, SharedCalibratorAcrossAssessorsIsConsistent) {
    const auto cal = shared_cal();
    core::TwoPhaseConfig config;
    config.mode = core::ScreeningMode::kMulti;
    const core::TwoPhaseAssessor a{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("average")},
        cal};
    const core::TwoPhaseAssessor b{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        cal};
    stats::Rng rng{504};
    const auto history = sim::honest_history(600, 0.92, rng);
    // Same screening verdict regardless of phase-2 function.
    EXPECT_EQ(a.screen(history.view()).passed, b.screen(history.view()).passed);
    // Different phase-2 trust values (average vs Beta posterior mean).
    const auto assess_a = a.assess(history);
    const auto assess_b = b.assess(history);
    ASSERT_TRUE(assess_a.trust.has_value());
    ASSERT_TRUE(assess_b.trust.has_value());
    EXPECT_NE(*assess_a.trust, *assess_b.trust);
}

TEST(EndToEnd, CheatAndRunIsOutOfScopeByDesign) {
    // §3.1: a single bad transaction after a short honest affiliation is
    // explicitly not preventable by behavior testing — verify the library
    // matches the documented threat model instead of over-claiming.  The
    // claim is statistical: the vast majority of cheat-and-run histories
    // sail through screening.
    stats::Rng rng{505};
    const auto assessor = default_assessor(core::ScreeningMode::kMulti);
    int flagged = 0;
    constexpr int kTrials = 40;
    for (int t = 0; t < kTrials; ++t) {
        const auto history = sim::cheat_and_run_history(120, 0.97, rng);
        if (assessor.assess(history).verdict == core::Verdict::kSuspicious) {
            ++flagged;
        }
    }
    EXPECT_LT(flagged, kTrials / 4);
}

TEST(EndToEnd, CollusionPipelineWithCsv) {
    // Build a colluder-boosted history, persist it, reload it, and verify
    // only the collusion-resilient assessor rejects it.
    stats::Rng rng{506};
    repsys::TransactionHistory history;
    repsys::EntityId victim = 500;
    for (int i = 0; i < 500; ++i) {
        if (rng.bernoulli(0.08)) {
            history.append(1, victim++, repsys::Rating::kNegative);
        } else {
            history.append(1, static_cast<repsys::EntityId>(2 + i % 5),
                           repsys::Rating::kPositive);
        }
    }
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_e2e_collusion.csv").string();
    repsys::save_csv(path, history);
    const auto loaded = repsys::load_csv(path);
    std::remove(path.c_str());

    const auto plain = default_assessor(core::ScreeningMode::kMulti);
    const auto resilient =
        default_assessor(core::ScreeningMode::kMulti, "average", true);
    EXPECT_EQ(plain.assess(loaded).verdict, core::Verdict::kAssessed);
    EXPECT_EQ(resilient.assess(loaded).verdict, core::Verdict::kSuspicious);
}

TEST(EndToEnd, LongHistoryScreeningIsFast) {
    // §5.5 sanity: screening a 100k-transaction history with the O(n)
    // multi-test completes quickly (well under a second here).
    stats::Rng rng{507};
    const auto outcomes = sim::honest_outcomes(100000, 0.9, rng);
    const core::MultiTest mt{{}, shared_cal()};
    // First run pays the one-time Monte-Carlo calibration; the steady
    // state §5.5 talks about is the warm-cache run.
    (void)mt.test(std::span<const std::uint8_t>{outcomes});
    const auto start = std::chrono::steady_clock::now();
    const auto result = mt.test(std::span<const std::uint8_t>{outcomes});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(result.sufficient);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              2000);
}

}  // namespace
}  // namespace hpr
