// Heavier randomized property tests cutting across modules.  Each suite
// fuzzes an invariant the library's correctness argument leans on, under
// parameter sweeps (TEST_P) and seeded randomness so failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <tuple>

#include "core/behavior_test.h"
#include "core/collusion.h"
#include "core/config.h"
#include "core/multi_test.h"
#include "core/online.h"
#include "core/two_phase.h"
#include "core/window_stats.h"
#include "repsys/history.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"
#include "sim/generators.h"
#include "stats/binomial.h"
#include "stats/calibrate.h"
#include "stats/distance.h"
#include "stats/empirical.h"
#include "stats/reference_cache.h"
#include "stats/rng.h"
#include "../stats/incomplete_beta.h"

namespace hpr {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

// ---------------------------------------------------------------------------
// Invariant 1: incremental multi-testing == naive multi-testing, across
// window sizes, steps, distance kinds and the Bonferroni correction.

using MultiEquivParam = std::tuple<std::uint32_t /*window*/, std::size_t /*step*/,
                                   bool /*bonferroni*/, stats::DistanceKind>;

class MultiTestEquivalence : public ::testing::TestWithParam<MultiEquivParam> {};

TEST_P(MultiTestEquivalence, IncrementalEqualsNaiveFuzz) {
    const auto [window, step, bonferroni, kind] = GetParam();
    core::MultiTestConfig config;
    config.base.window_size = window;
    config.base.distance = kind;
    config.step = step;
    config.bonferroni = bonferroni;
    config.collect_details = true;
    config.stop_on_failure = false;
    const core::MultiTest tester{config};

    stats::Rng rng{window * 1000 + step + (bonferroni ? 7 : 0)};
    for (int trial = 0; trial < 8; ++trial) {
        const auto n = static_cast<std::size_t>(
            3 * window + rng.uniform_int(std::uint64_t{600}));
        const double p = 0.4 + 0.6 * rng.uniform();
        auto outcomes = sim::honest_outcomes(n, p, rng);
        if (trial % 2 == 1) {
            outcomes.insert(outcomes.end(), window + 5, std::uint8_t{0});
        }
        const std::span<const std::uint8_t> view{outcomes};
        const auto fast = tester.test(view);
        const auto slow = tester.test_naive(view);
        ASSERT_EQ(fast.passed, slow.passed) << "trial " << trial;
        ASSERT_EQ(fast.stages_run, slow.stages_run);
        ASSERT_EQ(fast.failed_suffix_length, slow.failed_suffix_length);
        ASSERT_EQ(fast.details.size(), slow.details.size());
        for (std::size_t s = 0; s < fast.details.size(); ++s) {
            ASSERT_DOUBLE_EQ(fast.details[s].distance, slow.details[s].distance);
            ASSERT_DOUBLE_EQ(fast.details[s].threshold, slow.details[s].threshold);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiTestEquivalence,
    ::testing::Values(
        MultiEquivParam{10, 0, false, stats::DistanceKind::kL1},
        MultiEquivParam{10, 0, true, stats::DistanceKind::kL1},
        MultiEquivParam{10, 50, false, stats::DistanceKind::kL1},
        MultiEquivParam{5, 0, false, stats::DistanceKind::kL1},
        MultiEquivParam{20, 40, true, stats::DistanceKind::kL1},
        MultiEquivParam{10, 0, false, stats::DistanceKind::kKolmogorovSmirnov},
        MultiEquivParam{10, 30, true, stats::DistanceKind::kL2}));

// ---------------------------------------------------------------------------
// Invariant 2: issuer re-ordering matches a straightforward reference
// implementation exactly.

std::vector<repsys::Feedback> reference_reorder(
    std::span<const repsys::Feedback> feedbacks) {
    struct Group {
        std::size_t first = 0;
        std::vector<repsys::Feedback> members;
    };
    std::map<repsys::EntityId, Group> groups;
    for (std::size_t i = 0; i < feedbacks.size(); ++i) {
        auto [it, inserted] = groups.try_emplace(feedbacks[i].client);
        if (inserted) it->second.first = i;
        it->second.members.push_back(feedbacks[i]);
    }
    std::vector<const Group*> ordered;
    for (const auto& [client, group] : groups) ordered.push_back(&group);
    std::sort(ordered.begin(), ordered.end(), [](const Group* a, const Group* b) {
        if (a->members.size() != b->members.size()) {
            return a->members.size() > b->members.size();
        }
        return a->first < b->first;
    });
    std::vector<repsys::Feedback> out;
    for (const Group* g : ordered) {
        out.insert(out.end(), g->members.begin(), g->members.end());
    }
    return out;
}

TEST(ReorderProperty, MatchesReferenceImplementationFuzz) {
    stats::Rng rng{2001};
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<repsys::Feedback> feedbacks;
        const auto n = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{400}));
        const auto clients = 1 + rng.uniform_int(std::uint64_t{25});
        for (std::size_t i = 0; i < n; ++i) {
            feedbacks.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1), 1,
                static_cast<repsys::EntityId>(rng.uniform_int(clients)),
                rng.bernoulli(0.8) ? repsys::Rating::kPositive
                                   : repsys::Rating::kNegative});
        }
        ASSERT_EQ(core::reorder_by_issuer(feedbacks), reference_reorder(feedbacks))
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------------------
// Invariant 3: the calibrated threshold is monotone in confidence and in
// the window count, for arbitrary keys.

TEST(CalibratorProperty, ThresholdMonotoneInConfidenceFuzz) {
    auto cal = shared_cal();
    stats::Rng rng{2002};
    for (int trial = 0; trial < 15; ++trial) {
        const auto windows = 3 + rng.uniform_int(std::uint64_t{300});
        const std::uint32_t m = 5 + static_cast<std::uint32_t>(
                                        rng.uniform_int(std::uint64_t{20}));
        const double p = 0.5 + 0.5 * rng.uniform();
        double last = 0.0;
        for (const double confidence : {0.5, 0.8, 0.9, 0.95, 0.99}) {
            const double eps = cal->threshold(windows, m, p, confidence);
            ASSERT_GE(eps + 1e-15, last)
                << "windows=" << windows << " m=" << m << " p=" << p;
            last = eps;
        }
    }
}

TEST(CalibratorProperty, ThresholdWeaklyDecreasingInWindowsFuzz) {
    auto cal = shared_cal();
    stats::Rng rng{2003};
    for (int trial = 0; trial < 10; ++trial) {
        const double p = 0.6 + 0.35 * rng.uniform();
        double last = 10.0;
        for (std::size_t windows = 4; windows <= 2048; windows *= 4) {
            const double eps = cal->threshold(windows, 10, p);
            ASSERT_LE(eps, last + 0.05) << "p=" << p << " windows=" << windows;
            last = eps;
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant 4: binomial survival equals the regularized incomplete beta
// (the classic identity linking the two distributions).

TEST(CrossModuleProperty, BinomialSurvivalMatchesIncompleteBeta) {
    stats::Rng rng{2004};
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint32_t n = 1 + static_cast<std::uint32_t>(
                                        rng.uniform_int(std::uint64_t{40}));
        const double p = 0.05 + 0.9 * rng.uniform();
        const std::uint32_t k = 1 + static_cast<std::uint32_t>(
                                        rng.uniform_int(std::uint64_t{n}));
        const stats::Binomial binomial{n, p};
        const double via_beta =
            stats::oracle::reg_incomplete_beta(k, static_cast<double>(n - k) + 1.0, p);
        ASSERT_NEAR(binomial.survival(k), via_beta, 1e-9)
            << "n=" << n << " k=" << k << " p=" << p;
    }
}

// ---------------------------------------------------------------------------
// Invariant 4b: screening through the shared reference-model cache is
// bit-identical to fresh per-stage model construction — the property the
// whole assessment fast path rests on (stats/reference_cache.h).  The
// cache is deliberately tiny so the fuzz also crosses eviction churn, and
// the trials include all-good histories, whose distance to B(m, 1) must
// be exactly 0 under either path.

TEST(ReferenceCacheProperty, CachedScreeningBitIdenticalToUncachedFuzz) {
    core::MultiTestConfig cached_config;
    cached_config.stop_on_failure = false;
    cached_config.collect_details = true;
    cached_config.base.reference_cache =
        std::make_shared<stats::ReferenceModelCache>(32);
    core::MultiTestConfig uncached_config = cached_config;
    uncached_config.base.use_reference_cache = false;
    uncached_config.base.reference_cache = nullptr;
    const core::MultiTest cached{cached_config, shared_cal()};
    const core::MultiTest uncached{uncached_config, shared_cal()};

    stats::Rng rng{2045};
    for (int trial = 0; trial < 24; ++trial) {
        const auto n =
            static_cast<std::size_t>(30 + rng.uniform_int(std::uint64_t{800}));
        std::vector<std::uint8_t> outcomes;
        if (trial % 6 == 5) {
            outcomes.assign(n, std::uint8_t{1});  // degenerate p̂ = 1 exactly
        } else {
            const double p = 0.3 + 0.7 * rng.uniform();
            outcomes = sim::honest_outcomes(n, p, rng);
            if (trial % 3 == 2) {
                outcomes.insert(outcomes.end(), 25, std::uint8_t{0});
            }
        }
        const std::span<const std::uint8_t> view{outcomes};
        const auto fast = cached.test(view);
        const auto fresh = uncached.test(view);
        ASSERT_EQ(fast.passed, fresh.passed) << "trial " << trial;
        ASSERT_EQ(fast.sufficient, fresh.sufficient);
        ASSERT_EQ(fast.stages_run, fresh.stages_run);
        ASSERT_EQ(fast.failed_suffix_length, fresh.failed_suffix_length);
        ASSERT_EQ(fast.min_margin, fresh.min_margin);  // exact, not NEAR
        ASSERT_EQ(fast.details.size(), fresh.details.size());
        for (std::size_t s = 0; s < fast.details.size(); ++s) {
            ASSERT_EQ(fast.details[s].distance, fresh.details[s].distance)
                << "trial " << trial << " stage " << s;
            ASSERT_EQ(fast.details[s].threshold, fresh.details[s].threshold);
            ASSERT_EQ(fast.details[s].p_hat, fresh.details[s].p_hat);
            ASSERT_EQ(fast.details[s].passed, fresh.details[s].passed);
        }
    }
    const auto stats = cached_config.base.reference_cache->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);  // the fuzz really crossed eviction churn
}

// ---------------------------------------------------------------------------
// Invariant 5: WindowStats bookkeeping is exact against the raw sequence.

TEST(WindowStatsProperty, TotalsMatchRawSequenceFuzz) {
    stats::Rng rng{2005};
    for (int trial = 0; trial < 30; ++trial) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{1000}));
        const std::uint32_t m = 1 + static_cast<std::uint32_t>(
                                        rng.uniform_int(std::uint64_t{30}));
        const auto outcomes = sim::honest_outcomes(n, 0.5 + 0.5 * rng.uniform(), rng);
        const auto ws =
            core::compute_window_stats(std::span<const std::uint8_t>{outcomes}, m);
        ASSERT_EQ(ws.windows(), n / m);
        ASSERT_EQ(ws.transactions_used, (n / m) * m);
        std::uint64_t direct = 0;
        for (std::size_t i = n - ws.transactions_used; i < n; ++i) {
            direct += outcomes[i];
        }
        ASSERT_EQ(ws.good_total, direct);
        std::uint64_t from_windows = 0;
        for (const auto g : ws.good_counts) {
            ASSERT_LE(g, m);
            from_windows += g;
        }
        ASSERT_EQ(from_windows, direct);
    }
}

// ---------------------------------------------------------------------------
// Invariant 6: EmpiricalDistribution under random add/remove equals a
// batch rebuild of the surviving multiset.

TEST(EmpiricalProperty, AddRemoveMatchesBatchFuzz) {
    stats::Rng rng{2006};
    for (int trial = 0; trial < 20; ++trial) {
        stats::EmpiricalDistribution live{10};
        std::vector<std::uint32_t> surviving;
        for (int op = 0; op < 500; ++op) {
            if (!surviving.empty() && rng.bernoulli(0.4)) {
                const auto pick = rng.uniform_int(surviving.size());
                live.remove(surviving[pick]);
                surviving.erase(surviving.begin() + static_cast<std::ptrdiff_t>(pick));
            } else {
                const auto value =
                    static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{11}));
                live.add(value);
                surviving.push_back(value);
            }
        }
        const stats::EmpiricalDistribution batch{10, surviving};
        ASSERT_EQ(live.count_table(), batch.count_table());
        ASSERT_EQ(live.value_sum(), batch.value_sum());
        ASSERT_NEAR(live.variance(), batch.variance(), 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Invariant 7: the two-phase assessor's published pieces are coherent —
// screen() matches assess().screening, and acceptable() is exactly
// "not suspicious and trust above threshold".

TEST(TwoPhaseProperty, AssessmentPiecesAreCoherentFuzz) {
    core::TwoPhaseConfig config;
    config.mode = core::ScreeningMode::kMulti;
    const core::TwoPhaseAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("average")},
        shared_cal()};
    stats::Rng rng{2007};
    for (int trial = 0; trial < 25; ++trial) {
        repsys::TransactionHistory history;
        const auto n = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{700}));
        const double p = rng.uniform();
        for (std::size_t i = 0; i < n; ++i) {
            history.append(1, static_cast<repsys::EntityId>(2 + i % 17),
                           rng.bernoulli(p) ? repsys::Rating::kPositive
                                            : repsys::Rating::kNegative);
        }
        const auto assessment = assessor.assess(history);
        const auto screening = assessor.screen(history.view());
        ASSERT_EQ(assessment.screening.passed, screening.passed);
        ASSERT_EQ(assessment.screening.stages_run, screening.stages_run);
        ASSERT_EQ(assessment.trust.has_value(), screening.passed);
        if (assessment.trust) {
            ASSERT_NEAR(*assessment.trust, history.good_ratio(), 1e-12);
        }
        for (const double threshold : {0.1, 0.5, 0.9}) {
            const bool expected = screening.passed && assessment.trust &&
                                  *assessment.trust >= threshold;
            ASSERT_EQ(assessment.acceptable(threshold), expected);
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant 8: the streaming screener's final evaluation equals the batch
// multi-test on window-aligned streams, across configurations.

class OnlineBatchParity
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t, bool>> {};

TEST_P(OnlineBatchParity, FinalEvaluationMatchesBatchFuzz) {
    const auto [window, step, bonferroni] = GetParam();
    core::MultiTestConfig config;
    config.base.window_size = window;
    config.step = step;
    config.bonferroni = bonferroni;
    config.stop_on_failure = false;
    const core::MultiTest batch{config, shared_cal()};

    core::OnlineScreenerConfig streaming;
    streaming.test = config;

    stats::Rng rng{static_cast<std::uint64_t>(window) * 31 + step};
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t windows_count = 4 + rng.uniform_int(std::uint64_t{60});
        const auto outcomes =
            sim::honest_outcomes(windows_count * window, 0.55 + 0.45 * rng.uniform(),
                                 rng);
        core::OnlineScreener screener{streaming, shared_cal()};
        for (const auto o : outcomes) screener.observe(o != 0);
        const auto batch_result =
            batch.test(std::span<const std::uint8_t>{outcomes});
        ASSERT_EQ(screener.last_evaluation_passed(), batch_result.passed)
            << "window=" << window << " step=" << step << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineBatchParity,
                         ::testing::Values(std::make_tuple(10u, std::size_t{0}, false),
                                           std::make_tuple(10u, std::size_t{0}, true),
                                           std::make_tuple(5u, std::size_t{15}, false),
                                           std::make_tuple(20u, std::size_t{0}, false)));

// ---------------------------------------------------------------------------
// Invariant 8b: FeedbackStore round-trips through save/load and eviction
// under random operation sequences.

TEST(StoreProperty, SaveLoadEvictFuzz) {
    stats::Rng rng{2009};
    for (int trial = 0; trial < 6; ++trial) {
        repsys::FeedbackStore store;
        repsys::Timestamp t = 1;
        for (int i = 0; i < 400; ++i) {
            store.submit(repsys::Feedback{
                t++, static_cast<repsys::EntityId>(1 + rng.uniform_int(std::uint64_t{6})),
                static_cast<repsys::EntityId>(100 + rng.uniform_int(std::uint64_t{30})),
                rng.bernoulli(0.85) ? repsys::Rating::kPositive
                                    : repsys::Rating::kNegative});
        }
        const auto dir = (std::filesystem::temp_directory_path() /
                          ("hpr_store_fuzz_" + std::to_string(trial)))
                             .string();
        store.save(dir);
        const repsys::FeedbackStore loaded = repsys::FeedbackStore::load(dir);
        ASSERT_EQ(loaded.size(), store.size());
        for (const auto server : store.servers()) {
            ASSERT_EQ(loaded.history_snapshot(server).feedbacks(),
                      store.history_snapshot(server).feedbacks());
        }
        // Eviction preserves exactly the at-or-after-cutoff suffix.
        repsys::FeedbackStore evicted = repsys::FeedbackStore::load(dir);
        const repsys::Timestamp cutoff =
            1 + static_cast<repsys::Timestamp>(rng.uniform_int(std::uint64_t{400}));
        std::filesystem::remove_all(dir);
        const std::size_t removed = evicted.evict_before(cutoff);
        std::size_t expected_removed = 0;
        for (const auto server : loaded.servers()) {
            const repsys::TransactionHistory history = loaded.history_snapshot(server);
            for (const auto& f : history.feedbacks()) {
                if (f.time < cutoff) ++expected_removed;
            }
        }
        ASSERT_EQ(removed, expected_removed);
        ASSERT_EQ(evicted.size(), loaded.size() - expected_removed);
    }
}

// ---------------------------------------------------------------------------
// Invariant 9: trust accumulators equal whole-history evaluation at every
// prefix, for every registered trust function, under random streams.

TEST(TrustProperty, AccumulatorPrefixConsistencyFuzz) {
    stats::Rng rng{2010};
    for (const char* spec : {"average", "weighted:0.3", "beta", "decay:0.95", "trustguard"}) {
        const auto trust = repsys::make_trust_function(spec);
        for (int trial = 0; trial < 5; ++trial) {
            repsys::TransactionHistory history;
            auto acc = trust->make_accumulator();
            const double p = rng.uniform();
            for (int i = 0; i < 200; ++i) {
                const bool good = rng.bernoulli(p);
                history.append(1, 2, good ? repsys::Rating::kPositive
                                          : repsys::Rating::kNegative);
                acc->update(good);
                ASSERT_NEAR(acc->value(), trust->evaluate(history), 1e-12)
                    << spec << " step " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant 10: parallel batch assessment over the sharded store equals
// the seed sequential path — one TwoPhaseAssessor walking history_snapshot(id)
// server by server — for random tapes, shard counts and thread counts.

TEST(ServingProperty, BatchAssessorEqualsSequentialLoopFuzz) {
    const auto trust = std::shared_ptr<const repsys::TrustFunction>{
        repsys::make_trust_function("beta")};
    stats::Rng rng{2011};
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t shard_count = 1 + rng.uniform_int(std::uint64_t{31});
        const std::size_t threads = 1 + rng.uniform_int(std::uint64_t{8});

        repsys::FeedbackStore store{shard_count};
        std::vector<repsys::Feedback> batch;
        for (repsys::EntityId server = 1; server <= 10; ++server) {
            const auto length = rng.uniform_int(std::uint64_t{500});
            const double p = 0.3 + 0.7 * rng.uniform();
            for (std::size_t i = 0; i < length; ++i) {
                batch.push_back(repsys::Feedback{
                    static_cast<repsys::Timestamp>(i + 1), server,
                    static_cast<repsys::EntityId>(200 + rng.uniform_int(std::uint64_t{19})),
                    rng.bernoulli(p) ? repsys::Rating::kPositive
                                     : repsys::Rating::kNegative});
            }
        }
        store.ingest_batch(batch);

        core::TwoPhaseConfig config;
        config.mode = core::ScreeningMode::kMulti;
        config.test.bonferroni = trial % 2 == 0;
        config.test.collect_details = true;
        const core::TwoPhaseAssessor sequential{config, trust, shared_cal()};
        serve::BatchAssessorConfig batch_config;
        batch_config.assessment = config;
        batch_config.threads = threads;
        const serve::BatchAssessor parallel{batch_config, trust, shared_cal()};

        const auto results = parallel.assess_all(store);
        const auto servers = store.servers();
        ASSERT_EQ(results.size(), servers.size());
        for (std::size_t i = 0; i < servers.size(); ++i) {
            ASSERT_EQ(results[i].server, servers[i]);
            const auto& got = results[i].assessment;
            const auto want = sequential.assess(store.history_snapshot(servers[i]));
            ASSERT_EQ(got.verdict, want.verdict)
                << "trial " << trial << " server " << servers[i]
                << " shards=" << shard_count << " threads=" << threads;
            ASSERT_EQ(got.trust.has_value(), want.trust.has_value());
            if (want.trust) {
                ASSERT_DOUBLE_EQ(*got.trust, *want.trust);
            }
            ASSERT_EQ(got.screening.passed, want.screening.passed);
            ASSERT_EQ(got.screening.stages_run, want.screening.stages_run);
            ASSERT_EQ(got.screening.failed_suffix_length,
                      want.screening.failed_suffix_length);
            ASSERT_EQ(got.screening.details.size(), want.screening.details.size());
            for (std::size_t s = 0; s < want.screening.details.size(); ++s) {
                ASSERT_DOUBLE_EQ(got.screening.details[s].distance,
                                 want.screening.details[s].distance);
                ASSERT_DOUBLE_EQ(got.screening.details[s].threshold,
                                 want.screening.details[s].threshold);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant 11: the horizon-bounded screener is a pure optimization.
// (a) While the stream still fits max_windows, every observable of the
// bounded screener equals the unbounded screener's after every single
// observe.  (b) Once the ring has wrapped, each evaluation must equal
// batch MultiTest over exactly the newest horizon*m outcomes — bounding
// changes what is retained, never what the retained suffix decides.

TEST(OnlineHorizonProperty, BoundedEqualsUnboundedWithinHorizonFuzz) {
    stats::Rng rng{2012};
    for (int trial = 0; trial < 8; ++trial) {
        core::OnlineScreenerConfig bounded_config;
        bounded_config.test.bonferroni = trial % 2 == 0;
        bounded_config.max_windows =
            bounded_config.test.base.min_windows + rng.uniform_int(std::uint64_t{20});
        core::OnlineScreenerConfig unbounded_config = bounded_config;
        unbounded_config.max_windows = 0;
        core::OnlineScreener bounded{bounded_config, shared_cal()};
        core::OnlineScreener unbounded{unbounded_config, shared_cal()};
        const double p = 0.4 + 0.6 * rng.uniform();
        const std::size_t horizon_tx =
            bounded_config.max_windows * bounded_config.test.base.window_size;
        for (std::size_t i = 0; i < horizon_tx; ++i) {
            const bool good = rng.bernoulli(p);
            bounded.observe(good);
            unbounded.observe(good);
            ASSERT_EQ(bounded.state(), unbounded.state())
                << "trial " << trial << " tx " << i;
            ASSERT_EQ(bounded.p_hat(), unbounded.p_hat())
                << "trial " << trial << " tx " << i;
            ASSERT_EQ(bounded.last_evaluation_passed(),
                      unbounded.last_evaluation_passed())
                << "trial " << trial << " tx " << i;
            ASSERT_EQ(bounded.evaluations(), unbounded.evaluations());
            ASSERT_EQ(bounded.retained_windows(), unbounded.retained_windows());
        }
    }
}

TEST(OnlineHorizonProperty, RetainedSuffixEqualsBatchMultiTestPastWrapFuzz) {
    stats::Rng rng{2013};
    for (int trial = 0; trial < 6; ++trial) {
        core::OnlineScreenerConfig config;
        config.test.bonferroni = trial % 2 == 0;
        config.max_windows = 4 + rng.uniform_int(std::uint64_t{12});
        const std::uint32_t m = config.test.base.window_size;
        const std::size_t horizon_tx = config.max_windows * m;
        core::OnlineScreener screener{config, shared_cal()};
        const core::MultiTest oracle{config.test, shared_cal()};
        // Mid-stream behavior flips keep failing ladders in the sample.
        const double p_early = 0.5 + 0.5 * rng.uniform();
        const double p_late = 0.3 + 0.7 * rng.uniform();
        std::vector<std::uint8_t> tape;
        const std::size_t total_tx = 3 * horizon_tx;
        for (std::size_t i = 0; i < total_tx; ++i) {
            tape.push_back(rng.bernoulli(i < total_tx / 2 ? p_early : p_late) ? 1
                                                                              : 0);
        }
        for (std::size_t i = 0; i < total_tx; ++i) {
            screener.observe(tape[i] != 0);
            if ((i + 1) % m != 0 || i + 1 < horizon_tx) continue;
            ASSERT_EQ(screener.retained_windows(), config.max_windows);
            const auto batch = oracle.test(std::span<const std::uint8_t>{
                tape.data() + (i + 1 - horizon_tx), horizon_tx});
            ASSERT_EQ(screener.last_evaluation_passed(), batch.passed)
                << "trial " << trial << " tx " << i + 1 << " horizon "
                << config.max_windows;
        }
    }
}

}  // namespace
}  // namespace hpr
