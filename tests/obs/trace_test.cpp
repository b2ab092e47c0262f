// Decision tracing: the ring buffer's conservation and eviction
// semantics, deterministic sampling, JSONL round-trips, and the
// end-to-end contract — a flagged server's DecisionRecord carries the
// failing suffix length, L1 distance and calibrated ε, verified here
// against values recomputed independently of the assessor's ladder.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/collusion.h"
#include "core/multi_test.h"
#include "core/online.h"
#include "core/two_phase.h"
#include "obs/metrics.h"
#include "repsys/trust.h"
#include "sim/generators.h"
#include "stats/binomial.h"
#include "stats/distance.h"
#include "stats/empirical.h"
#include "stats/rng.h"

namespace hpr::obs {
namespace {

/// Tracing rides process-global state (the obs kill switch and the
/// default tracer); every integration test scopes both: tracer on at
/// sample rate 1, ring drained on entry and exit, everything restored to
/// the quiet default afterwards.
struct TracerGuard {
    TracerGuard() {
        set_enabled(true);
        default_tracer().set_sample_rate(1.0);
        default_tracer().set_enabled(true);
        (void)default_tracer().ring().drain();
    }
    ~TracerGuard() {
        (void)default_tracer().ring().drain();
        default_tracer().set_enabled(false);
        set_enabled(true);
    }
};

DecisionRecord make_record(std::uint64_t id) {
    DecisionRecord record;
    record.trace_id = id;
    record.source = "two_phase";
    record.server = id % 7;
    record.verdict = "assessed";
    return record;
}

TEST(TraceRing, RejectsZeroCapacity) {
    EXPECT_THROW(TraceRing{0}, std::invalid_argument);
}

TEST(TraceRing, WrapAroundEvictsOldestInOrder) {
    TraceRing ring{4};
    for (std::uint64_t id = 1; id <= 10; ++id) ring.push(make_record(id));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.evicted(), 6u);

    const auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 4u);
    for (std::size_t i = 0; i < drained.size(); ++i) {
        EXPECT_EQ(drained[i].trace_id, 7u + i);  // oldest survivor first
    }
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.drain().empty());
    EXPECT_EQ(ring.pushed(), 10u) << "drain must not touch lifetime totals";
}

TEST(TraceRing, SnapshotIsNonDestructiveAndOldestFirst) {
    TraceRing ring{4};
    for (std::uint64_t id = 1; id <= 6; ++id) ring.push(make_record(id));

    const auto first = ring.snapshot();
    ASSERT_EQ(first.size(), 4u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].trace_id, 3u + i);  // oldest retained first
    }
    EXPECT_EQ(ring.size(), 4u) << "snapshot must not consume records";

    // A repeated scrape sees the same retained set...
    const auto second = ring.snapshot();
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].trace_id, first[i].trace_id);
    }

    // ...and a later forensics drain still gets everything.
    const auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 4u);
    EXPECT_EQ(drained.front().trace_id, 3u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, ConcurrentRecordAndDrainConservesRecords) {
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 500;
    TraceRing ring{64};

    std::atomic<std::size_t> drained_count{0};
    std::set<std::uint64_t> drained_ids;
    std::atomic<bool> stop{false};
    std::thread drainer{[&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (auto& record : ring.drain()) {
                drained_ids.insert(record.trace_id);
                drained_count.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }};

    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        producers.emplace_back([&ring, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                ring.push(make_record(t * kPerThread + i + 1));
            }
        });
    }
    for (auto& thread : producers) thread.join();
    stop.store(true, std::memory_order_release);
    drainer.join();
    for (auto& record : ring.drain()) {
        drained_ids.insert(record.trace_id);
        drained_count.fetch_add(1, std::memory_order_relaxed);
    }

    // Conservation: every push either survived to a drain or was counted
    // as evicted — no loss, no duplication.
    EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
    EXPECT_EQ(drained_count.load() + ring.evicted(), ring.pushed());
    EXPECT_EQ(drained_ids.size(), drained_count.load())
        << "a record was drained twice";
}

TEST(Tracer, SamplingIsDeterministicUnderAFixedSeed) {
    TracerConfig config;
    config.seed = 12345;
    config.sample_rate = 0.37;
    const Tracer a{config};
    const Tracer b{config};

    std::size_t kept = 0;
    for (std::uint64_t id = 1; id <= 1000; ++id) {
        EXPECT_EQ(a.sampled(id), b.sampled(id)) << "id " << id;
        if (a.sampled(id)) ++kept;
    }
    // The decision is a pure hash of (seed, id): the keep fraction must
    // land near the rate (binomial, σ ≈ 0.015 at n=1000).
    EXPECT_NEAR(static_cast<double>(kept) / 1000.0, 0.37, 0.08);

    TracerConfig other = config;
    other.seed = 54321;
    const Tracer c{other};
    std::size_t agreements = 0;
    for (std::uint64_t id = 1; id <= 1000; ++id) {
        if (a.sampled(id) == c.sampled(id)) ++agreements;
    }
    EXPECT_LT(agreements, 1000u) << "seed must matter";
}

TEST(Tracer, RateEndpointsKeepAllOrNothing) {
    TracerConfig config;
    config.sample_rate = 1.0;
    const Tracer all{config};
    config.sample_rate = 0.0;
    const Tracer none{config};
    for (std::uint64_t id = 1; id <= 200; ++id) {
        EXPECT_TRUE(all.sampled(id));
        EXPECT_FALSE(none.sampled(id));
    }
    EXPECT_DOUBLE_EQ(all.sample_rate(), 1.0);
    EXPECT_DOUBLE_EQ(none.sample_rate(), 0.0);
}

TEST(Jsonl, RoundTripsAFullyPopulatedRecord) {
    DecisionRecord record;
    record.trace_id = 987654321;
    record.source = "two_phase";
    record.server = 42;
    record.wall_time = 1754486400.123456;
    record.verdict = "suspicious";
    record.transition = "flagged";
    record.trust = 0.87654321;
    record.mode = "multi";
    record.collusion_resilient = true;
    record.window_size = 10;
    record.history_length = 800;
    record.p_hat = 0.7125;
    record.min_margin = -0.0625;
    record.failed = StageEvidence{200, 20, 0.71, 0.3333333333333333, 0.25, true, false};
    record.reorder = ReorderSummary{true, 60, 31, 0.9875};
    record.runs = RunsEvidence{true, false, -2.5, 1.959963984540054};
    record.stages = {StageEvidence{30, 3, 0.9, 0.1, 0.4, true, true},
                     StageEvidence{200, 20, 0.71, 0.3333333333333333, 0.25, true, false}};
    record.spans = {SpanRecord{"phase1/ladder", 1, 0.0001, 0.0005},
                    SpanRecord{"phase1/screen", 0, 0.0, 0.001}};

    const std::string line = to_jsonl(record);
    EXPECT_EQ(line.find('\n'), std::string::npos) << "JSONL must be one line";

    DecisionRecord parsed;
    ASSERT_TRUE(from_jsonl(line, parsed));
    EXPECT_EQ(parsed.trace_id, record.trace_id);
    EXPECT_EQ(parsed.source, record.source);
    EXPECT_EQ(parsed.server, record.server);
    EXPECT_DOUBLE_EQ(parsed.wall_time, record.wall_time);
    EXPECT_EQ(parsed.verdict, record.verdict);
    EXPECT_EQ(parsed.transition, record.transition);
    ASSERT_TRUE(parsed.trust.has_value());
    EXPECT_DOUBLE_EQ(*parsed.trust, *record.trust);
    EXPECT_EQ(parsed.mode, record.mode);
    EXPECT_EQ(parsed.collusion_resilient, record.collusion_resilient);
    EXPECT_EQ(parsed.window_size, record.window_size);
    EXPECT_EQ(parsed.history_length, record.history_length);
    EXPECT_DOUBLE_EQ(parsed.p_hat, record.p_hat);
    EXPECT_DOUBLE_EQ(parsed.min_margin, record.min_margin);
    ASSERT_TRUE(parsed.failed.has_value());
    EXPECT_EQ(*parsed.failed, *record.failed);
    EXPECT_EQ(parsed.reorder, record.reorder);
    EXPECT_EQ(parsed.runs, record.runs);
    EXPECT_EQ(parsed.stages, record.stages);
    EXPECT_EQ(parsed.spans, record.spans);
}

TEST(Jsonl, OmitsAbsentOptionalSections) {
    DecisionRecord record;
    record.trace_id = 1;
    record.source = "online_screener";
    record.verdict = "clear";
    const std::string line = to_jsonl(record);
    EXPECT_EQ(line.find("\"trust\""), std::string::npos);
    EXPECT_EQ(line.find("\"failed\""), std::string::npos);
    EXPECT_EQ(line.find("\"reorder\""), std::string::npos);
    EXPECT_EQ(line.find("\"runs\""), std::string::npos);
    EXPECT_EQ(line.find("\"transition\""), std::string::npos);

    DecisionRecord parsed;
    ASSERT_TRUE(from_jsonl(line, parsed));
    EXPECT_FALSE(parsed.trust.has_value());
    EXPECT_FALSE(parsed.failed.has_value());
    EXPECT_FALSE(parsed.reorder.applied);
    EXPECT_FALSE(parsed.runs.evaluated);
    EXPECT_TRUE(parsed.transition.empty());
}

TEST(Jsonl, EscapesEmbeddedQuotesAndControls) {
    DecisionRecord record;
    record.trace_id = 5;
    record.source = "two_phase";
    record.verdict = "weird\"verdict\nwith\tcontrols";
    DecisionRecord parsed;
    ASSERT_TRUE(from_jsonl(to_jsonl(record), parsed));
    EXPECT_EQ(parsed.verdict, record.verdict);
}

TEST(Jsonl, RejectsMalformedInput) {
    DecisionRecord out;
    EXPECT_FALSE(from_jsonl("", out));
    EXPECT_FALSE(from_jsonl("not json at all", out));
    EXPECT_FALSE(from_jsonl("{\"trace_id\":", out));
    EXPECT_FALSE(from_jsonl("{\"trace_id\":1", out));
    EXPECT_FALSE(from_jsonl("{\"verdict\":\"unterminated}", out));
    EXPECT_FALSE(from_jsonl("{\"trace_id\":1} trailing", out));
    EXPECT_FALSE(from_jsonl("live monitoring after 1000 transactions", out));
}

TEST(Jsonl, RejectsNonIntegerAndOutOfRangeIntegers) {
    DecisionRecord out;
    // Integer fields are exact: 2^53 + 1 must not round through a double.
    ASSERT_TRUE(from_jsonl(R"({"trace_id":9007199254740993,"window_size":4294967295})",
                           out));
    EXPECT_EQ(out.trace_id, 9007199254740993u);
    EXPECT_EQ(out.window_size, 4294967295u);
    ASSERT_TRUE(from_jsonl(R"({"trace_id":18446744073709551615})", out));
    EXPECT_EQ(out.trace_id, 18446744073709551615u);

    // A fraction, an exponent, a sign or an overflow is malformed, never
    // a truncated or wrapped value.
    EXPECT_FALSE(from_jsonl(R"({"trace_id":1.5})", out));
    EXPECT_FALSE(from_jsonl(R"({"trace_id":1e30})", out));
    EXPECT_FALSE(from_jsonl(R"({"trace_id":1e2})", out));
    EXPECT_FALSE(from_jsonl(R"({"trace_id":-1})", out));
    EXPECT_FALSE(from_jsonl(R"({"trace_id":+1})", out));
    EXPECT_FALSE(from_jsonl(R"({"trace_id":18446744073709551616})", out));
    EXPECT_FALSE(from_jsonl(R"({"server":3.0})", out));
    EXPECT_FALSE(from_jsonl(R"({"history_length":-0})", out));
    EXPECT_FALSE(from_jsonl(R"({"failed":{"suffix_length":2.5}})", out));
    EXPECT_FALSE(from_jsonl(R"({"stages":[{"windows":1e1}]})", out));
    EXPECT_FALSE(from_jsonl(R"({"reorder":{"issuers":-3}})", out));

    // 32-bit fields reject values above UINT32_MAX instead of truncating.
    EXPECT_FALSE(from_jsonl(R"({"window_size":4294967306})", out));
    EXPECT_FALSE(from_jsonl(R"({"spans":[{"name":"x","depth":4294967296}]})", out));
}

TEST(Jsonl, SkipsUnknownKeysForForwardCompatibility) {
    DecisionRecord out;
    ASSERT_TRUE(from_jsonl(
        R"({"trace_id":9,"future_key":{"nested":[1,2,{"x":"y"}]},"verdict":"clear"})",
        out));
    EXPECT_EQ(out.trace_id, 9u);
    EXPECT_EQ(out.verdict, "clear");
}

// --- end-to-end: the assessor's audit trail -------------------------------

TEST(DecisionTrace, FlaggedServerRecordMatchesIndependentRecomputation) {
    const TracerGuard guard;

    // The demo workload's attacker shape: honest-looking preparation,
    // then a burst of cheating — the §3 hibernating attack the screening
    // exists to catch.
    stats::Rng rng{2024};
    const auto history = sim::hibernating_history(600, 200, 0.95, rng, /*server=*/4);
    const auto feedbacks = history.view();

    core::TwoPhaseConfig config;
    config.test.base.replications = 400;  // keep cold calibration quick
    const auto calibrator = core::make_calibrator(config.test.base);
    const core::TwoPhaseAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        calibrator};

    const auto assessment = assessor.assess(feedbacks);
    ASSERT_EQ(assessment.verdict, core::Verdict::kSuspicious);

    const auto records = default_tracer().ring().drain();
    ASSERT_EQ(records.size(), 1u);
    const DecisionRecord& record = records.front();
    EXPECT_EQ(record.source, "two_phase");
    EXPECT_EQ(record.server, 4u);
    EXPECT_EQ(record.verdict, "suspicious");
    EXPECT_EQ(record.mode, "multi");
    EXPECT_EQ(record.window_size, 10u);
    EXPECT_EQ(record.history_length, feedbacks.size());
    EXPECT_FALSE(record.trust.has_value()) << "suspicious servers get no trust";
    EXPECT_EQ(record.stages.size(), static_cast<std::size_t>(
                                        assessment.screening.stages_run));
    ASSERT_TRUE(record.failed.has_value());
    ASSERT_TRUE(assessment.screening.failed_suffix_length.has_value());
    EXPECT_EQ(record.failed->suffix_length,
              *assessment.screening.failed_suffix_length);
    EXPECT_FALSE(record.failed->passed);

    // Recompute the failing stage's evidence from first principles,
    // bypassing MultiTest: window good-counts over the newest-anchored
    // suffix, L1 distance against B(m, p̂), ε from the shared calibrator.
    const std::uint32_t m = config.test.base.window_size;
    const auto suffix_length = static_cast<std::size_t>(record.failed->suffix_length);
    const std::size_t windows = suffix_length / m;
    stats::EmpiricalDistribution counts{m};
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t begin = feedbacks.size() - (w + 1) * m;
        std::uint32_t good = 0;
        for (std::size_t i = begin; i < begin + m; ++i) {
            if (feedbacks[i].good()) ++good;
        }
        counts.add(good);
    }
    const double p_hat = static_cast<double>(counts.value_sum()) /
                         static_cast<double>(windows * m);
    const stats::Binomial reference{m, p_hat};
    const double distance =
        stats::distance(counts, reference.pmf_table(), stats::DistanceKind::kL1);
    const double epsilon =
        calibrator->threshold(windows, m, p_hat, config.test.base.confidence);

    EXPECT_EQ(record.failed->windows, windows);
    EXPECT_DOUBLE_EQ(record.failed->p_hat, p_hat);
    EXPECT_DOUBLE_EQ(record.failed->distance, distance);
    EXPECT_DOUBLE_EQ(record.failed->epsilon, epsilon);
    EXPECT_GT(distance, epsilon) << "the failing stage must actually fail";

    // And the record survives a JSONL round trip bit-for-bit.
    DecisionRecord parsed;
    ASSERT_TRUE(from_jsonl(to_jsonl(record), parsed));
    ASSERT_TRUE(parsed.failed.has_value());
    EXPECT_EQ(*parsed.failed, *record.failed);
}

TEST(DecisionTrace, SpansNestUnderTheAssessment) {
    const TracerGuard guard;
    stats::Rng rng{7};
    const auto history = sim::honest_history(300, 0.95, rng, /*server=*/2);

    core::TwoPhaseConfig config;
    config.test.base.replications = 400;
    const core::TwoPhaseAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        core::make_calibrator(config.test.base)};
    const auto assessment = assessor.assess(history.view());
    ASSERT_EQ(assessment.verdict, core::Verdict::kAssessed);

    const auto records = default_tracer().ring().drain();
    ASSERT_EQ(records.size(), 1u);
    const auto find_span = [&](const std::string& name) -> const SpanRecord* {
        for (const auto& span : records.front().spans) {
            if (span.name == name) return &span;
        }
        return nullptr;
    };
    const SpanRecord* screen = find_span("phase1/screen");
    const SpanRecord* ladder = find_span("phase1/ladder");
    const SpanRecord* trust = find_span("phase2/trust");
    const SpanRecord* calibrate = find_span("calibrate/compute");
    ASSERT_NE(screen, nullptr);
    ASSERT_NE(ladder, nullptr);
    ASSERT_NE(trust, nullptr);
    ASSERT_NE(calibrate, nullptr) << "cold Monte-Carlo runs must be visible";

    EXPECT_EQ(screen->depth, 0u);
    EXPECT_EQ(trust->depth, 0u);
    EXPECT_GT(ladder->depth, screen->depth) << "ladder nests inside screening";
    EXPECT_GE(ladder->start_seconds, screen->start_seconds);
    EXPECT_LE(ladder->duration_seconds, screen->duration_seconds * 1.5 + 1e-3);
    for (const auto& span : records.front().spans) {
        EXPECT_GE(span.duration_seconds, 0.0) << span.name;
        EXPECT_NE(span.name, "phase1/stage") << "there are no per-stage spans";
    }
}

TEST(DecisionTrace, CollusionReorderSummaryIsRecorded) {
    const TracerGuard guard;

    // Ballot-stuffing shape: one dominant issuer plus a fringe.
    std::vector<repsys::Feedback> feedbacks;
    for (std::uint32_t i = 0; i < 120; ++i) {
        feedbacks.push_back(repsys::Feedback{
            static_cast<repsys::Timestamp>(i + 1), /*server=*/9,
            /*client=*/i % 3 == 0 ? 100u : 200u + (i % 5),
            repsys::Rating::kPositive});
    }

    core::TwoPhaseConfig config;
    config.collusion_resilient = true;
    config.test.base.replications = 400;
    const core::TwoPhaseAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        core::make_calibrator(config.test.base)};
    (void)assessor.assess(std::span<const repsys::Feedback>{feedbacks});

    const auto records = default_tracer().ring().drain();
    ASSERT_EQ(records.size(), 1u);
    const DecisionRecord& record = records.front();
    EXPECT_TRUE(record.collusion_resilient);
    ASSERT_TRUE(record.reorder.applied);
    EXPECT_EQ(record.reorder.issuers, 6u);
    EXPECT_EQ(record.reorder.largest_group, 40u);  // client 100: every 3rd
    EXPECT_GT(record.reorder.displaced_fraction, 0.0);
    EXPECT_LE(record.reorder.displaced_fraction, 1.0);
    const auto* reorder_span = [&]() -> const SpanRecord* {
        for (const auto& span : record.spans) {
            if (span.name == "reorder") return &span;
        }
        return nullptr;
    }();
    EXPECT_NE(reorder_span, nullptr);
}

TEST(DecisionTrace, OnlineScreenerEmitsStreamRecords) {
    const TracerGuard guard;

    core::OnlineScreenerConfig config;
    config.test.base.replications = 400;
    core::OnlineScreener screener{config};
    screener.set_entity(7);
    EXPECT_EQ(screener.entity(), 7u);

    stats::Rng rng{11};
    std::size_t fed = 0;
    while (screener.state() != core::StreamState::kSuspicious && fed < 600) {
        // honest warm-up, then constant cheating until flagged
        screener.observe(fed < 200 && rng.bernoulli(0.95));
        ++fed;
    }
    ASSERT_EQ(screener.state(), core::StreamState::kSuspicious);

    const auto records = default_tracer().ring().drain();
    ASSERT_FALSE(records.empty());
    bool saw_flagged = false;
    for (const auto& record : records) {
        EXPECT_EQ(record.source, "online_screener");
        EXPECT_EQ(record.server, 7u);
        EXPECT_EQ(record.mode, "multi");
        if (record.transition == "flagged") {
            saw_flagged = true;
            EXPECT_EQ(record.verdict, "suspicious");
            ASSERT_TRUE(record.failed.has_value());
            EXPECT_GT(record.failed->distance, record.failed->epsilon);
        }
    }
    EXPECT_TRUE(saw_flagged) << "the flagging evaluation must leave a record";
}

TEST(DecisionTrace, OnlineRecordMatchesBatchLadderTraceBitForBit) {
    const TracerGuard guard;

    // An aligned stream inside the horizon: the screener's windows and the
    // batch tester's coincide, so after every evaluation the streaming
    // record must carry exactly the evidence MultiTest traces over the same
    // outcomes — same stages, same shortest failing stage, same margin.
    for (const bool bonferroni : {false, true}) {
        SCOPED_TRACE(bonferroni ? "bonferroni" : "uncorrected");
        core::OnlineScreenerConfig config;
        config.test.base.replications = 400;
        config.test.bonferroni = bonferroni;
        config.max_windows = 64;
        const auto calibrator = core::make_calibrator(config.test.base);
        core::OnlineScreener screener{config, calibrator};
        const core::MultiTest batch{config.test, calibrator};
        const std::uint32_t m = config.test.base.window_size;

        stats::Rng rng{29};
        std::vector<std::uint8_t> outcomes;
        std::size_t evaluations = 0;
        std::size_t failing = 0;
        while (outcomes.size() < 400) {
            // honest warm-up, then a burst of cheating
            const bool good = outcomes.size() < 250 && rng.bernoulli(0.95);
            outcomes.push_back(good ? 1 : 0);
            screener.observe(good);
            if (outcomes.size() % m != 0 ||
                outcomes.size() < config.test.base.min_windows * m) {
                continue;
            }
            const auto online = default_tracer().ring().drain();
            ASSERT_EQ(online.size(), 1u);

            DecisionRecord traced;
            core::MultiTestResult result;
            {
                TraceContext context{default_tracer(), 0, "batch"};
                result = batch.test(std::span<const std::uint8_t>{outcomes});
                traced = *context.record();
            }
            (void)default_tracer().ring().drain();

            const DecisionRecord& record = online.front();
            ASSERT_FALSE(traced.stages.empty());
            EXPECT_EQ(record.stages, traced.stages) << "at " << outcomes.size();
            std::optional<StageEvidence> first_failing;
            for (const auto& stage : traced.stages) {
                if (!stage.passed) {
                    first_failing = stage;
                    break;
                }
            }
            EXPECT_EQ(record.failed, first_failing) << "at " << outcomes.size();
            ASSERT_TRUE(result.sufficient);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(record.min_margin),
                      std::bit_cast<std::uint64_t>(result.min_margin))
                << "at " << outcomes.size();
            ++evaluations;
            if (first_failing) ++failing;
        }
        EXPECT_EQ(evaluations, 400 / m - config.test.base.min_windows + 1);
        EXPECT_GT(failing, 0u) << "the cheating burst must fail some evaluations";
        EXPECT_LT(failing, evaluations) << "the warm-up must pass some evaluations";
    }
}

TEST(DecisionTrace, KillSwitchDisablesTracing) {
    const TracerGuard guard;
    set_enabled(false);

    {
        TraceContext context{default_tracer(), 3, "two_phase"};
        EXPECT_FALSE(context.recording());
        EXPECT_EQ(TraceContext::current(), nullptr);
        TraceSpan span{"phase1/screen"};  // must be inert, not crash
    }
    EXPECT_EQ(default_tracer().ring().size(), 0u);

    set_enabled(true);
    {
        TraceContext context{default_tracer(), 3, "two_phase"};
        EXPECT_TRUE(context.recording());
        EXPECT_EQ(TraceContext::current(), &context);
    }
    EXPECT_EQ(default_tracer().ring().size(), 1u);
}

TEST(DecisionTrace, InactiveTracerRecordsNothing) {
    const TracerGuard guard;
    default_tracer().set_enabled(false);
    {
        TraceContext context{default_tracer(), 3, "two_phase"};
        EXPECT_FALSE(context.recording());
        EXPECT_EQ(TraceContext::current(), nullptr);
    }
    EXPECT_EQ(default_tracer().ring().size(), 0u);
}

TEST(DecisionTrace, ContextsNestPerThread) {
    const TracerGuard guard;
    {
        TraceContext outer{default_tracer(), 1, "two_phase"};
        EXPECT_EQ(TraceContext::current(), &outer);
        {
            TraceContext inner{default_tracer(), 2, "online_screener"};
            EXPECT_EQ(TraceContext::current(), &inner);
        }
        EXPECT_EQ(TraceContext::current(), &outer);
    }
    EXPECT_EQ(TraceContext::current(), nullptr);
    const auto records = default_tracer().ring().drain();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].server, 2u) << "inner context commits first";
    EXPECT_EQ(records[1].server, 1u);
}

}  // namespace
}  // namespace hpr::obs
