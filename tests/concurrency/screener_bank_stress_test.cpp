// Multi-threaded stress tests for the streaming screener bank inside
// serve::BatchAssessor, meant to run under -DHPR_SANITIZE=thread and
// address as well as plain builds.  Observers stream disjoint server
// populations while assessment callers and eviction churn hammer the
// same lock-striped bank; afterwards conservation invariants are
// asserted: no lost streams, exact eviction accounting, screener states
// that match a single-threaded replay of each surviving tape, and served
// trust values that are always the trust of some prefix of the tape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/online.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr::serve {
namespace {

constexpr std::size_t kThreads = 8;

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

std::shared_ptr<const repsys::TrustFunction> beta_trust() {
    return std::shared_ptr<const repsys::TrustFunction>{
        repsys::make_trust_function("beta")};
}

BatchAssessorConfig bank_config() {
    BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    config.threads = 2;
    config.screener_horizon = 8;
    return config;
}

repsys::Feedback fb(repsys::Timestamp t, repsys::EntityId server, bool good) {
    return repsys::Feedback{t, server, static_cast<repsys::EntityId>(900 + t % 7),
                            good ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative};
}

std::vector<bool> make_outcomes(repsys::EntityId server, std::size_t length) {
    stats::Rng rng{0x5c4ee4e4ULL + server};
    const double p = 0.55 + 0.4 * rng.uniform();
    std::vector<bool> outcomes;
    outcomes.reserve(length);
    for (std::size_t i = 0; i < length; ++i) outcomes.push_back(rng.bernoulli(p));
    return outcomes;
}

// 8 observer threads stream disjoint server populations into one bank;
// every stream's final state must equal a single-threaded replay of the
// same tape, and the bank must account for every stream exactly once.
TEST(ScreenerBankStress, DisjointObserversMatchSequentialReplay) {
    constexpr std::size_t kServers = 64;
    constexpr std::size_t kPerServer = 250;
    const auto config = bank_config();
    BatchAssessor bank{config, beta_trust(), shared_cal()};

    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (repsys::EntityId s = 1; s <= kServers; ++s) {
                if (s % kThreads != t % kThreads) continue;
                const auto outcomes = make_outcomes(s, kPerServer);
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    bank.observe(fb(static_cast<repsys::Timestamp>(i + 1), s,
                                    outcomes[i]));
                }
            }
        });
    }
    for (auto& worker : pool) worker.join();

    ASSERT_EQ(bank.tracked_streams(), kServers);
    EXPECT_GT(bank.stream_memory_bytes(), 0u);
    for (repsys::EntityId s = 1; s <= kServers; ++s) {
        core::OnlineScreenerConfig screener_config;
        screener_config.test = config.assessment.test;
        screener_config.max_windows = config.screener_horizon;
        core::OnlineScreener replay{screener_config, shared_cal()};
        for (const bool good : make_outcomes(s, kPerServer)) replay.observe(good);
        ASSERT_EQ(bank.stream_state(s), replay.state()) << "server " << s;
    }
}

// Observers, assessment callers, and eviction churn run concurrently.
// The bank must stay consistent: dropped counts sum to exactly the
// number of evicted servers, surviving streams replay correctly, and
// assess() keeps answering throughout (TSan/ASan validate the rest).
TEST(ScreenerBankStress, ObserversAssessorsAndEvictionChurn) {
    constexpr std::size_t kServers = 48;      // 6 per observer thread
    constexpr std::size_t kPerServer = 400;
    constexpr std::size_t kEvictServers = 16; // churned by the evictor
    const auto config = bank_config();
    BatchAssessor bank{config, beta_trust(), shared_cal()};

    // A store for the assessment callers: modest honest histories, plus
    // rows for the churned servers so assess() can always resolve them.
    repsys::FeedbackStore store{8};
    std::vector<repsys::EntityId> all_servers;
    {
        std::vector<repsys::Feedback> seed;
        for (repsys::EntityId s = 1; s <= kServers; ++s) {
            all_servers.push_back(s);
            stats::Rng rng{0xfeedULL + s};
            for (std::size_t i = 0; i < 60; ++i) {
                seed.push_back(fb(static_cast<repsys::Timestamp>(i + 1), s,
                                  rng.bernoulli(0.9)));
            }
        }
        store.ingest_batch(seed);
    }

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> total_dropped{0};
    std::vector<std::thread> pool;

    // 5 observer threads over disjoint non-churned servers.
    constexpr std::size_t kObservers = 5;
    for (std::size_t t = 0; t < kObservers; ++t) {
        pool.emplace_back([&, t] {
            for (repsys::EntityId s = kEvictServers + 1; s <= kServers; ++s) {
                if ((s - kEvictServers - 1) % kObservers != t) continue;
                const auto outcomes = make_outcomes(s, kPerServer);
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    bank.observe(fb(static_cast<repsys::Timestamp>(i + 1), s,
                                    outcomes[i]));
                }
            }
        });
    }
    // 2 assessment callers: streaming-first batches racing the observers.
    for (std::size_t t = 0; t < 2; ++t) {
        pool.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const auto results = bank.assess(store, all_servers);
                EXPECT_EQ(results.size(), all_servers.size());
            }
        });
    }
    // 1 evictor: keeps re-creating and dropping the churn population.
    pool.emplace_back([&] {
        std::vector<repsys::EntityId> churn;
        for (repsys::EntityId s = 1; s <= kEvictServers; ++s) churn.push_back(s);
        for (int round = 0; round < 40; ++round) {
            for (const auto s : churn) {
                for (std::size_t i = 0; i < 25; ++i) {
                    bank.observe(fb(static_cast<repsys::Timestamp>(
                                        round * 25 + i + 1),
                                    s, i % 5 != 0));
                }
            }
            total_dropped.fetch_add(bank.drop_streams(churn),
                                    std::memory_order_relaxed);
        }
    });

    // Join the bounded workers, then release the assess loops.
    pool[0].join();
    for (std::size_t t = 1; t < kObservers; ++t) pool[t].join();
    pool.back().join();
    stop.store(true, std::memory_order_relaxed);
    for (std::size_t t = kObservers; t < kObservers + 2; ++t) pool[t].join();

    // Conservation: every churn round re-created kEvictServers streams and
    // dropped them again, so exactly 40 * kEvictServers drops happened and
    // only the observer-owned streams survive.
    EXPECT_EQ(total_dropped.load(), 40u * kEvictServers);
    EXPECT_EQ(bank.tracked_streams(), kServers - kEvictServers);
    for (repsys::EntityId s = kEvictServers + 1; s <= kServers; ++s) {
        core::OnlineScreenerConfig screener_config;
        screener_config.test = config.assessment.test;
        screener_config.max_windows = config.screener_horizon;
        core::OnlineScreener replay{screener_config, shared_cal()};
        for (const bool good : make_outcomes(s, kPerServer)) replay.observe(good);
        ASSERT_EQ(bank.stream_state(s), replay.state()) << "server " << s;
    }
}

// Writers commit known per-server tapes with ingest_batch and stream
// each committed batch through observe(), as the ingest path does, while
// assessors read the bank.  A clear stream's trust comes from its folded
// accumulator when that covers the store's log and from a snapshot
// otherwise; either way every trust served mid-race must be evaluate()
// over some prefix of the server's tape, and once the writers stop it
// must be evaluate() over the store's history, bit for bit.  The
// single-server form also reports the history length it answered for, and
// its trust must be the trust of exactly that prefix.
TEST(ScreenerBankStress, StreamedTrustIsAlwaysAPrefixOfTheTape) {
    constexpr std::size_t kServers = 16;
    constexpr std::size_t kWriters = 4;
    constexpr std::size_t kPerServer = 600;
    constexpr std::size_t kChunk = 25;
    const auto config = bank_config();
    BatchAssessor bank{config, beta_trust(), shared_cal()};
    repsys::FeedbackStore store{8};
    const repsys::TrustFunction& trust = bank.assessor().trust_function();

    std::vector<repsys::EntityId> servers;
    std::vector<std::vector<repsys::Feedback>> tapes(kServers + 1);
    // prefix_trust[s][k]: the bits of evaluate() over server s's first k records.
    std::vector<std::vector<std::uint64_t>> prefix_trust(kServers + 1);
    for (repsys::EntityId s = 1; s <= kServers; ++s) {
        servers.push_back(s);
        const auto outcomes = make_outcomes(s, kPerServer);
        for (std::size_t i = 0; i < kPerServer; ++i) {
            tapes[s].push_back(fb(static_cast<repsys::Timestamp>(i + 1), s, outcomes[i]));
        }
        const std::span<const repsys::Feedback> tape{tapes[s]};
        for (std::size_t k = 0; k <= kPerServer; ++k) {
            prefix_trust[s].push_back(
                std::bit_cast<std::uint64_t>(trust.evaluate(tape.first(k))));
        }
    }
    // Commits tape records [from, from + kChunk) of each given server as
    // one batch, then observes them in commit order.
    const auto commit_chunk = [&](const std::vector<repsys::EntityId>& owned,
                                  std::size_t from) {
        std::vector<repsys::Feedback> batch;
        for (const repsys::EntityId s : owned) {
            batch.insert(batch.end(), tapes[s].begin() + static_cast<std::ptrdiff_t>(from),
                         tapes[s].begin() + static_cast<std::ptrdiff_t>(from + kChunk));
        }
        store.ingest_batch(batch);
        for (const repsys::Feedback& feedback : batch) bank.observe(feedback);
    };
    // Every server is in the store before the race, so assess() never
    // meets an unknown id.
    commit_chunk(servers, 0);

    // Writers start only once both assessors run, and each assessor makes
    // at least one pass, so assessments overlap the writes however the
    // threads are scheduled and `served` cannot stay 0.
    constexpr std::size_t kAssessors = 2;
    std::atomic<std::size_t> assessors_running{0};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> off_tape{0};
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            while (assessors_running.load(std::memory_order_acquire) < kAssessors) {
                std::this_thread::yield();
            }
            std::vector<repsys::EntityId> owned;
            for (const repsys::EntityId s : servers) {
                if (s % kWriters == t) owned.push_back(s);
            }
            for (std::size_t from = kChunk; from < kPerServer; from += kChunk) {
                commit_chunk(owned, from);
                std::this_thread::yield();  // let the assessors interleave
            }
        });
    }
    std::vector<std::thread> assessors;
    assessors.emplace_back([&] {
        assessors_running.fetch_add(1, std::memory_order_acq_rel);
        do {
            for (const auto& result : bank.assess(store, servers)) {
                if (!result.assessment.trust) continue;
                served.fetch_add(1, std::memory_order_relaxed);
                const auto& prefixes = prefix_trust[result.server];
                if (std::find(prefixes.begin(), prefixes.end(),
                              std::bit_cast<std::uint64_t>(*result.assessment.trust)) ==
                    prefixes.end()) {
                    off_tape.fetch_add(1, std::memory_order_relaxed);
                }
            }
        } while (!stop.load(std::memory_order_relaxed));
    });
    assessors.emplace_back([&] {
        assessors_running.fetch_add(1, std::memory_order_acq_rel);
        do {
            for (const repsys::EntityId s : servers) {
                const auto result = bank.assess_served(store, s);
                if (!result.assessment.trust) continue;
                served.fetch_add(1, std::memory_order_relaxed);
                if (result.history_length > kPerServer ||
                    prefix_trust[s][result.history_length] !=
                        std::bit_cast<std::uint64_t>(*result.assessment.trust)) {
                    off_tape.fetch_add(1, std::memory_order_relaxed);
                }
            }
        } while (!stop.load(std::memory_order_relaxed));
    });
    for (auto& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& assessor : assessors) assessor.join();

    EXPECT_GT(served.load(), 0u);
    EXPECT_EQ(off_tape.load(), 0u) << "a served trust is no prefix of its tape";
    std::size_t clear = 0;
    for (const repsys::EntityId s : servers) {
        ASSERT_EQ(store.history_length(s), std::optional<std::size_t>{kPerServer});
        const auto result = bank.assess(store, {s});
        if (bank.stream_state(s) == core::StreamState::kClear) ++clear;
        if (!result[0].assessment.trust) continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*result[0].assessment.trust),
                  std::bit_cast<std::uint64_t>(
                      trust.evaluate(store.history_snapshot(s).view())))
            << "server " << s;
    }
    EXPECT_GT(clear, kServers / 2) << "too few clear streams to exercise the fold";
}

}  // namespace
}  // namespace hpr::serve
