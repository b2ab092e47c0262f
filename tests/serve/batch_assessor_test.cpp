// Equivalence suite for the parallel serving core (serve/batch_assessor.h).
//
// The load-bearing claim: the thread pool decides only WHICH thread
// assesses a server, never WHAT the assessment computes — so BatchAssessor
// must reproduce the seed sequential path (one TwoPhaseAssessor walking
// store.history_snapshot(id) server by server) bit for bit, at any thread count.

#include "serve/batch_assessor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "stats/rng.h"

namespace hpr::serve {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

std::shared_ptr<const repsys::TrustFunction> beta_trust() {
    return std::shared_ptr<const repsys::TrustFunction>{
        repsys::make_trust_function("beta")};
}

core::TwoPhaseConfig assessment_config() {
    core::TwoPhaseConfig config;
    config.mode = core::ScreeningMode::kMulti;
    config.test.bonferroni = true;
    config.test.collect_details = true;
    return config;
}

/// A population every verdict class shows up in: honest servers of
/// varying quality, one mid-stream quality drop, one newcomer too short
/// to screen.
repsys::FeedbackStore mixed_store() {
    repsys::FeedbackStore store{8};
    struct Spec {
        repsys::EntityId id;
        std::size_t length;
        double p;
        bool drops;
    };
    const std::vector<Spec> specs{
        {1, 800, 0.97, false}, {2, 600, 0.85, false}, {3, 700, 0.95, true},
        {4, 500, 0.70, false}, {5, 12, 0.90, false},  {6, 900, 0.92, true},
    };
    std::vector<repsys::Feedback> batch;
    for (const auto& spec : specs) {
        stats::Rng rng{0xabcd00ULL + spec.id};
        for (std::size_t i = 0; i < spec.length; ++i) {
            const double p =
                (spec.drops && i >= spec.length / 2) ? spec.p * 0.5 : spec.p;
            batch.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1), spec.id,
                static_cast<repsys::EntityId>(100 + i % 23),
                rng.bernoulli(p) ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative});
        }
    }
    store.ingest_batch(batch);
    return store;
}

void expect_identical(const core::Assessment& got, const core::Assessment& want) {
    ASSERT_EQ(got.verdict, want.verdict);
    ASSERT_EQ(got.trust.has_value(), want.trust.has_value());
    if (want.trust) {
        ASSERT_DOUBLE_EQ(*got.trust, *want.trust);
    }
    ASSERT_EQ(got.screening.passed, want.screening.passed);
    ASSERT_EQ(got.screening.sufficient, want.screening.sufficient);
    ASSERT_EQ(got.screening.stages_run, want.screening.stages_run);
    ASSERT_EQ(got.screening.failed_suffix_length,
              want.screening.failed_suffix_length);
    ASSERT_DOUBLE_EQ(got.screening.min_margin, want.screening.min_margin);
    ASSERT_EQ(got.screening.details.size(), want.screening.details.size());
    for (std::size_t s = 0; s < want.screening.details.size(); ++s) {
        ASSERT_DOUBLE_EQ(got.screening.details[s].distance,
                         want.screening.details[s].distance);
        ASSERT_DOUBLE_EQ(got.screening.details[s].threshold,
                         want.screening.details[s].threshold);
        ASSERT_DOUBLE_EQ(got.screening.details[s].p_hat,
                         want.screening.details[s].p_hat);
    }
}

TEST(BatchAssessor, MatchesSequentialTwoPhasePath) {
    const repsys::FeedbackStore store = mixed_store();
    const core::TwoPhaseAssessor sequential{assessment_config(), beta_trust(),
                                            shared_cal()};
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 4;
    const BatchAssessor batch{config, beta_trust(), shared_cal()};

    const auto results = batch.assess_all(store);
    const auto servers = store.servers();
    ASSERT_EQ(results.size(), servers.size());
    bool saw_suspicious = false;
    bool saw_assessed = false;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        ASSERT_EQ(results[i].server, servers[i]);
        const auto reference = sequential.assess(store.history_snapshot(servers[i]));
        expect_identical(results[i].assessment, reference);
        saw_suspicious |= reference.verdict == core::Verdict::kSuspicious;
        saw_assessed |= reference.verdict == core::Verdict::kAssessed;
    }
    // The fixture must actually exercise both verdict branches.
    EXPECT_TRUE(saw_suspicious);
    EXPECT_TRUE(saw_assessed);
}

TEST(BatchAssessor, ThreadCountIsInvisibleInResults) {
    const repsys::FeedbackStore store = mixed_store();
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 1;
    const BatchAssessor one{config, beta_trust(), shared_cal()};
    const auto reference = one.assess_all(store);
    for (const std::size_t threads : {2u, 3u, 8u}) {
        config.threads = threads;
        const BatchAssessor many{config, beta_trust(), shared_cal()};
        ASSERT_EQ(many.threads(), threads);
        const auto results = many.assess_all(store);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(results[i].server, reference[i].server);
            expect_identical(results[i].assessment, reference[i].assessment);
        }
    }
}

TEST(BatchAssessor, ResultsFollowRequestOrder) {
    const repsys::FeedbackStore store = mixed_store();
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 2;
    const BatchAssessor assessor{config, beta_trust(), shared_cal()};
    const std::vector<repsys::EntityId> request{5, 1, 6, 1, 3};
    const auto results = assessor.assess(store, request);
    ASSERT_EQ(results.size(), request.size());
    for (std::size_t i = 0; i < request.size(); ++i) {
        EXPECT_EQ(results[i].server, request[i]);
    }
    // The duplicated server assesses identically both times.
    expect_identical(results[1].assessment, results[3].assessment);
}

TEST(BatchAssessor, UnknownServerThrowsOutOfRange) {
    const repsys::FeedbackStore store = mixed_store();
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 2;
    const BatchAssessor assessor{config, beta_trust(), shared_cal()};
    EXPECT_THROW((void)assessor.assess(store, {1, 999}), std::out_of_range);
}

TEST(BatchAssessor, NullTrustFunctionRejected) {
    EXPECT_THROW(BatchAssessor(BatchAssessorConfig{}, nullptr, shared_cal()),
                 std::invalid_argument);
}

TEST(BatchAssessor, EmptyRequestYieldsEmptyResult) {
    const repsys::FeedbackStore store = mixed_store();
    BatchAssessorConfig config;
    config.threads = 2;
    const BatchAssessor assessor{config, beta_trust(), shared_cal()};
    EXPECT_TRUE(assessor.assess(store, {}).empty());
}

// --- streaming screener bank ----------------------------------------------

/// Streams a whole tape through observe() and ingests it into the store.
void stream(repsys::FeedbackStore& store, BatchAssessor& assessor,
            repsys::EntityId server, std::size_t length, double p_before,
            double p_after) {
    stats::Rng rng{0x5eedULL + server};
    for (std::size_t i = 0; i < length; ++i) {
        const double p = i < length / 2 ? p_before : p_after;
        const repsys::Feedback feedback{
            static_cast<repsys::Timestamp>(i + 1), server,
            static_cast<repsys::EntityId>(300 + i % 7),
            rng.bernoulli(p) ? repsys::Rating::kPositive
                             : repsys::Rating::kNegative};
        store.submit(feedback);
        assessor.observe(feedback);
    }
}

TEST(BatchAssessorIncremental, ShortcutsFromStandingScreenerState) {
    repsys::FeedbackStore store{4};
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 2;
    BatchAssessor assessor{config, beta_trust(), shared_cal()};

    stream(store, assessor, 1, 800, 0.96, 0.96);  // honest throughout
    stream(store, assessor, 2, 800, 0.96, 0.05);  // flips mid-stream
    stream(store, assessor, 3, 15, 0.90, 0.90);   // too short to judge
    ASSERT_EQ(assessor.tracked_streams(), 3u);
    ASSERT_EQ(assessor.stream_state(1), core::StreamState::kClear);
    ASSERT_EQ(assessor.stream_state(2), core::StreamState::kSuspicious);
    ASSERT_EQ(assessor.stream_state(3), core::StreamState::kInsufficient);
    ASSERT_EQ(assessor.stream_state(99), core::StreamState::kInsufficient);

    const auto results = assessor.assess(store, {1, 2, 3});

    // Clear stream: phase 1 answered from the screener, phase 2 still the
    // real trust function on the real history.
    EXPECT_EQ(results[0].assessment.verdict, core::Verdict::kAssessed);
    ASSERT_TRUE(results[0].assessment.trust.has_value());
    EXPECT_DOUBLE_EQ(
        *results[0].assessment.trust,
        assessor.assessor().trust_function().evaluate(store.history_snapshot(1).view()));

    // Suspicious stream: rejected without a rescan, no trust value.
    EXPECT_EQ(results[1].assessment.verdict, core::Verdict::kSuspicious);
    EXPECT_FALSE(results[1].assessment.trust.has_value());
    EXPECT_FALSE(results[1].assessment.screening.passed);
    EXPECT_TRUE(results[1].assessment.screening.sufficient);

    // Insufficient stream: falls through to the full two-phase scan.
    const core::TwoPhaseAssessor sequential{assessment_config(), beta_trust(),
                                            shared_cal()};
    expect_identical(results[2].assessment, sequential.assess(store.history_snapshot(3)));
}

TEST(BatchAssessorIncremental, StreamInfoMirrorsTheLiveScreener) {
    repsys::FeedbackStore store{4};
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.screener_horizon = 8;
    BatchAssessor assessor{config, beta_trust(), shared_cal()};

    stream(store, assessor, 1, 400, 0.95, 0.95);
    const auto info = assessor.stream_info(1);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, assessor.stream_state(1));
    EXPECT_EQ(info->transactions, 400u);
    const std::size_t m = config.assessment.test.base.window_size;
    EXPECT_EQ(info->windows, 400u / m);
    EXPECT_EQ(info->horizon, 8u);
    EXPECT_LE(info->retained_windows, 8u);
    EXPECT_GT(info->evaluations, 0u);
    EXPECT_GT(info->p_hat, 0.5);
    EXPECT_LE(info->p_hat, 1.0);
    EXPECT_GT(info->memory_bytes, 0u);

    // Never-observed servers answer nullopt.
    EXPECT_FALSE(assessor.stream_info(99).has_value());
}

TEST(BatchAssessorIncremental, StreamingIsTheDefaultServingMode) {
    const BatchAssessorConfig config;
    EXPECT_GT(config.screener_horizon, 0u);  // bounded out of the box

    BatchAssessorConfig used = config;
    used.assessment = assessment_config();
    used.threads = 1;
    BatchAssessor assessor{used, beta_trust(), shared_cal()};
    assessor.observe(repsys::Feedback{1, 7, 2, repsys::Rating::kPositive});
    EXPECT_EQ(assessor.tracked_streams(), 1u);
    EXPECT_GT(assessor.stream_memory_bytes(), 0u);
}

TEST(BatchAssessorIncremental, AssessBatchIsTheOracleAndIgnoresTheBank) {
    // Store history: honest.  Streamed history: an all-bad alternation
    // that flags the screener.  assess() must follow the stream,
    // assess_batch() must follow the store.
    repsys::FeedbackStore store{4};
    stats::Rng rng{77};
    for (int i = 0; i < 600; ++i) {
        store.submit(repsys::Feedback{static_cast<repsys::Timestamp>(i + 1), 1, 2,
                                      rng.bernoulli(0.95)
                                          ? repsys::Rating::kPositive
                                          : repsys::Rating::kNegative});
    }
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 1;
    BatchAssessor assessor{config, beta_trust(), shared_cal()};
    std::size_t fed = 0;
    while (assessor.stream_state(1) != core::StreamState::kSuspicious &&
           fed < 2000) {
        const bool good = fed / 10 % 2 == 0;  // alternating windows
        assessor.observe(repsys::Feedback{static_cast<repsys::Timestamp>(fed + 1),
                                          1, 2,
                                          good ? repsys::Rating::kPositive
                                               : repsys::Rating::kNegative});
        ++fed;
    }
    ASSERT_EQ(assessor.stream_state(1), core::StreamState::kSuspicious);

    const auto streaming = assessor.assess(store, {1});
    EXPECT_EQ(streaming[0].assessment.verdict, core::Verdict::kSuspicious);
    const auto oracle = assessor.assess_batch(store, {1});
    EXPECT_EQ(oracle[0].assessment.verdict, core::Verdict::kAssessed);
    // And the oracle stays bit-identical to the sequential assessor.
    const core::TwoPhaseAssessor sequential{assessment_config(), beta_trust(),
                                            shared_cal()};
    expect_identical(oracle[0].assessment, sequential.assess(store.history_snapshot(1)));
}

TEST(BatchAssessorIncremental, StoreEvictionReleasesScreeners) {
    repsys::FeedbackStore store{4};
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 1;
    BatchAssessor assessor{config, beta_trust(), shared_cal()};
    for (repsys::EntityId server = 1; server <= 6; ++server) {
        // Servers 1-3 have only old feedback; 4-6 have fresh feedback too.
        store.submit(repsys::Feedback{1, server, 9, repsys::Rating::kPositive});
        if (server > 3) {
            store.submit(repsys::Feedback{50, server, 9, repsys::Rating::kPositive});
        }
        assessor.observe(repsys::Feedback{1, server, 9, repsys::Rating::kPositive});
    }
    ASSERT_EQ(assessor.tracked_streams(), 6u);

    std::vector<repsys::EntityId> forgotten;
    (void)store.evict_before(10, &forgotten);
    EXPECT_EQ(forgotten, (std::vector<repsys::EntityId>{1, 2, 3}));
    EXPECT_EQ(assessor.drop_streams(forgotten), 3u);
    EXPECT_EQ(assessor.tracked_streams(), 3u);
    EXPECT_EQ(assessor.stream_state(1), core::StreamState::kInsufficient);

    // evict_streams reconciles against the store directly: nothing stale
    // remains now, so it drops nothing.
    EXPECT_EQ(assessor.evict_streams(store), 0u);
    store.evict_before(100);  // forget everyone
    EXPECT_EQ(assessor.evict_streams(store), 3u);
    EXPECT_EQ(assessor.tracked_streams(), 0u);
}

TEST(BatchAssessorIncremental, HorizonBoundsStreamMemory) {
    BatchAssessorConfig config;
    config.assessment = assessment_config();
    config.threads = 1;
    config.screener_horizon = 8;
    BatchAssessor assessor{config, beta_trust(), shared_cal()};
    stats::Rng rng{78};
    const auto feed = [&](std::size_t count, repsys::Timestamp start) {
        for (std::size_t i = 0; i < count; ++i) {
            assessor.observe(repsys::Feedback{
                start + static_cast<repsys::Timestamp>(i), 1, 2,
                rng.bernoulli(0.9) ? repsys::Rating::kPositive
                                   : repsys::Rating::kNegative});
        }
    };
    feed(100, 1);
    const std::size_t bytes_young = assessor.stream_memory_bytes();
    ASSERT_GT(bytes_young, 0u);
    feed(10000, 101);
    EXPECT_EQ(assessor.stream_memory_bytes(), bytes_young)
        << "a horizon-bounded stream must not grow with age";
}

// --- streamed phase-2 trust ------------------------------------------------

/// Records `count` honest feedbacks of `server` from time `first` on:
/// committed to the store, then observed by the bank when one is given.
void record(repsys::FeedbackStore& store, BatchAssessor* bank,
            repsys::EntityId server, repsys::Timestamp first, std::size_t count,
            stats::Rng& rng) {
    for (std::size_t i = 0; i < count; ++i) {
        const repsys::Feedback feedback{
            first + static_cast<repsys::Timestamp>(i), server,
            static_cast<repsys::EntityId>(300 + i % 7),
            rng.bernoulli(0.95) ? repsys::Rating::kPositive
                                : repsys::Rating::kNegative};
        store.submit(feedback);
        if (bank != nullptr) bank->observe(feedback);
    }
}

/// A clear stream's assess() trust, the oracle evaluate() over the
/// store's snapshot and assess_batch()'s trust must be one double.
void expect_streamed_trust_is_exact(const BatchAssessor& bank,
                                    const repsys::FeedbackStore& store,
                                    repsys::EntityId server) {
    ASSERT_EQ(bank.stream_state(server), core::StreamState::kClear);
    const auto streamed = bank.assess(store, {server});
    const auto batch = bank.assess_batch(store, {server});
    ASSERT_TRUE(streamed[0].assessment.trust.has_value());
    ASSERT_TRUE(batch[0].assessment.trust.has_value());
    const double oracle = bank.assessor().trust_function().evaluate(
        store.history_snapshot(server).view());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*streamed[0].assessment.trust),
              std::bit_cast<std::uint64_t>(oracle));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*batch[0].assessment.trust),
              std::bit_cast<std::uint64_t>(oracle));
}

TEST(BatchAssessorIncremental, StreamedTrustIsExactForEveryTrustFunction) {
    for (std::string spec : repsys::known_trust_functions()) {
        // Parameterised specs ("decay:<gamma>") get a concrete value.
        if (const auto open = spec.find('<'); open != std::string::npos) {
            spec.replace(open, std::string::npos, "0.7");
        }
        SCOPED_TRACE(spec);
        repsys::FeedbackStore store{4};
        BatchAssessorConfig config;
        config.assessment = assessment_config();
        config.threads = 2;
        BatchAssessor bank{config,
                           std::shared_ptr<const repsys::TrustFunction>{
                               repsys::make_trust_function(spec)},
                           shared_cal()};
        stats::Rng rng{0x7a57ULL};

        // Steady state: the bank folded exactly the store's log.
        record(store, &bank, 1, 1, 800, rng);
        expect_streamed_trust_is_exact(bank, store, 1);

        // The store held history before the stream existed.
        record(store, nullptr, 2, 1, 200, rng);
        record(store, &bank, 2, 201, 600, rng);
        expect_streamed_trust_is_exact(bank, store, 2);

        // A stream dropped and observed afresh over a longer log.
        record(store, &bank, 3, 1, 800, rng);
        const std::vector<repsys::EntityId> dropped{3};
        ASSERT_EQ(bank.drop_streams(dropped), 1u);
        record(store, &bank, 3, 801, 600, rng);
        expect_streamed_trust_is_exact(bank, store, 3);

        // Partial eviction trims every log's front, then new records
        // bring server 1's log back to its old length.
        std::vector<repsys::EntityId> forgotten;
        ASSERT_GT(store.evict_before(301, &forgotten), 0u);
        ASSERT_TRUE(forgotten.empty());
        for (repsys::EntityId server = 1; server <= 3; ++server) {
            expect_streamed_trust_is_exact(bank, store, server);
        }
        record(store, &bank, 1, 801, 300, rng);
        ASSERT_EQ(store.history_length(1), std::optional<std::size_t>{800});
        expect_streamed_trust_is_exact(bank, store, 1);
    }
}

}  // namespace
}  // namespace hpr::serve
