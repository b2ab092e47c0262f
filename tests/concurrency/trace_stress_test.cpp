// Stress test: decision tracing at sample rate 1.0 while parallel batch
// assessment hammers the sharded store.  Proves the TraceRing's
// multi-producer push keeps its conservation law (pushed == evicted +
// drained + resident) and that every record that survives the race still
// round-trips the JSONL schema — no torn or corrupt records.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/two_phase.h"
#include "obs/trace.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr::obs {
namespace {

/// Restores the process-wide tracer's knobs on scope exit, so this suite
/// cannot leak tracing state into other tests in the binary.
class TracerGuard {
public:
    TracerGuard()
        : enabled_(default_tracer().active()),
          rate_(default_tracer().sample_rate()) {}
    ~TracerGuard() {
        default_tracer().set_enabled(enabled_);
        default_tracer().set_sample_rate(rate_);
    }

private:
    bool enabled_;
    double rate_;
};

TEST(TraceStress, RingConservesRecordsUnderParallelAssessment) {
    const TracerGuard guard;
    Tracer& tracer = default_tracer();
    (void)tracer.ring().drain();  // start from an empty ring
    tracer.set_sample_rate(1.0);
    tracer.set_enabled(true);
    const std::uint64_t pushed_before = tracer.ring().pushed();
    const std::uint64_t evicted_before = tracer.ring().evicted();

    // A population big enough that repeated assess_all rounds overflow the
    // default 256-record ring, so eviction accounting is exercised too.
    constexpr std::size_t kServers = 24;
    constexpr std::size_t kPerServer = 400;
    repsys::FeedbackStore store{8};
    for (repsys::EntityId s = 1; s <= kServers; ++s) {
        stats::Rng rng{0x7aceULL + s};
        std::vector<repsys::Feedback> tape;
        const double p = s % 5 == 0 ? 0.55 : 0.93;
        for (std::size_t i = 0; i < kPerServer; ++i) {
            tape.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1), s,
                static_cast<repsys::EntityId>(700 + i % 11),
                rng.bernoulli(p) ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative});
        }
        store.ingest_batch(tape);
    }

    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.threads = 4;
    const serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        core::make_calibrator(config.assessment.test.base)};

    // Writers keep extending the population while assessment rounds run
    // concurrently — every assess() call traces one DecisionRecord.  The
    // round count is sized so pushed records exceed the 256-slot ring and
    // wrap-around eviction happens under the race.
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < 2; ++w) {
        pool.emplace_back([&store, w] {
            const auto server = static_cast<repsys::EntityId>(kServers + 1 + w);
            for (std::size_t i = 0; i < 800; ++i) {
                store.submit(repsys::Feedback{
                    static_cast<repsys::Timestamp>(i + 1), server,
                    static_cast<repsys::EntityId>(900 + w),
                    repsys::Rating::kPositive});
            }
        });
    }
    for (std::size_t a = 0; a < 3; ++a) {
        pool.emplace_back([&] {
            for (int round = 0; round < 4; ++round) {
                const auto results = assessor.assess_all(store);
                ASSERT_GE(results.size(), kServers);
            }
        });
    }
    for (auto& worker : pool) worker.join();

    // Conservation: every record ever pushed is either still resident,
    // was evicted by wrap-around, or is in this drain.
    const auto records = tracer.ring().drain();
    const std::uint64_t pushed = tracer.ring().pushed() - pushed_before;
    const std::uint64_t evicted = tracer.ring().evicted() - evicted_before;
    EXPECT_EQ(tracer.ring().size(), 0u);
    EXPECT_EQ(pushed, evicted + records.size());
    // 3 assessors x 4 rounds x >= kServers servers, all sampled — more
    // than the ring holds, so some eviction must have been counted.
    EXPECT_GE(pushed, 12u * kServers);
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(records.size(), 0u);

    // No torn records: every survivor carries a full, schema-valid
    // evidence payload and round-trips the JSONL codec field for field.
    for (const auto& record : records) {
        EXPECT_EQ(record.source, "two_phase");
        EXPECT_GT(record.server, 0u);
        EXPECT_FALSE(record.verdict.empty());
        const std::string line = to_jsonl(record);
        DecisionRecord parsed;
        ASSERT_TRUE(from_jsonl(line, parsed)) << line;
        EXPECT_EQ(parsed.trace_id, record.trace_id);
        EXPECT_EQ(parsed.source, record.source);
        EXPECT_EQ(parsed.server, record.server);
        EXPECT_EQ(parsed.verdict, record.verdict);
        EXPECT_EQ(parsed.trust, record.trust);
        EXPECT_EQ(parsed.mode, record.mode);
        EXPECT_EQ(parsed.window_size, record.window_size);
        EXPECT_EQ(parsed.history_length, record.history_length);
        EXPECT_EQ(parsed.p_hat, record.p_hat);
        EXPECT_EQ(parsed.min_margin, record.min_margin);
        EXPECT_EQ(parsed.failed, record.failed);
        EXPECT_EQ(parsed.stages, record.stages);
    }
}

TEST(TraceStress, DisabledTracerStaysSilentUnderConcurrency) {
    const TracerGuard guard;
    Tracer& tracer = default_tracer();
    tracer.set_enabled(false);
    (void)tracer.ring().drain();
    const std::uint64_t pushed_before = tracer.ring().pushed();

    repsys::FeedbackStore store{4};
    for (repsys::EntityId s = 1; s <= 4; ++s) {
        std::vector<repsys::Feedback> tape;
        for (std::size_t i = 0; i < 200; ++i) {
            tape.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1), s,
                static_cast<repsys::EntityId>(800 + s),
                repsys::Rating::kPositive});
        }
        store.ingest_batch(tape);
    }
    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.threads = 4;
    const serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        core::make_calibrator(config.assessment.test.base)};
    (void)assessor.assess_all(store);

    EXPECT_EQ(tracer.ring().pushed(), pushed_before);
    EXPECT_EQ(tracer.ring().size(), 0u);
}

}  // namespace
}  // namespace hpr::obs
