// Multi-threaded stress tests for the sharded FeedbackStore, meant to run
// under -DHPR_SANITIZE=thread as well as plain builds.  Each test hammers
// the store from 8 threads and then asserts conservation invariants: total
// size, per-server time ordering, no lost or duplicated feedback.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "core/two_phase.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr::repsys {
namespace {

constexpr std::size_t kThreads = 8;

Feedback fb(Timestamp t, EntityId server, bool good) {
    return Feedback{t, server, static_cast<EntityId>(500 + t % 13),
                    good ? Rating::kPositive : Rating::kNegative};
}

/// Per-server tape for a thread-owned server (owner = server % kThreads).
std::vector<Feedback> make_tape(EntityId server, std::size_t length) {
    stats::Rng rng{0xc0ffeeULL + server};
    std::vector<Feedback> tape;
    tape.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        tape.push_back(fb(static_cast<Timestamp>(i + 1), server,
                          rng.bernoulli(0.9)));
    }
    return tape;
}

TEST(StoreConcurrency, ConcurrentSubmitConservesEveryFeedback) {
    constexpr std::size_t kServers = 64;
    constexpr std::size_t kPerServer = 300;
    FeedbackStore store{16};
    std::map<EntityId, std::vector<Feedback>> expected;
    for (EntityId s = 1; s <= kServers; ++s) {
        expected[s] = make_tape(s, kPerServer);
    }

    // Thread t owns servers with s % kThreads == t (disjoint ownership
    // keeps per-server submission time-ordered); even servers arrive one
    // feedback at a time, odd servers in 97-feedback ingest_batch calls,
    // so both write paths run concurrently against shared shards.
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (EntityId s = 1; s <= kServers; ++s) {
                if (s % kThreads != t) continue;
                const auto& tape = expected.at(s);
                if (s % 2 == 0) {
                    for (const auto& feedback : tape) store.submit(feedback);
                } else {
                    std::vector<Feedback> batch;
                    for (const auto& feedback : tape) {
                        batch.push_back(feedback);
                        if (batch.size() == 97) {
                            store.ingest_batch(batch);
                            batch.clear();
                        }
                    }
                    if (!batch.empty()) store.ingest_batch(batch);
                }
            }
        });
    }
    for (auto& worker : pool) worker.join();

    ASSERT_EQ(store.size(), kServers * kPerServer);
    ASSERT_EQ(store.server_count(), kServers);
    const auto servers = store.servers();
    ASSERT_EQ(servers.size(), kServers);
    for (const auto server : servers) {
        // Bit-identical to the tape: nothing lost, duplicated or reordered.
        ASSERT_EQ(store.history_snapshot(server).feedbacks(), expected.at(server))
            << "server " << server;
    }
}

TEST(StoreConcurrency, SnapshotsStayConsistentUnderConcurrentWrites) {
    constexpr std::size_t kWriters = 4;
    constexpr std::size_t kReaders = 4;
    constexpr std::size_t kPerServer = 2000;
    FeedbackStore store{8};
    // One server per writer; every reader polls all of them.  Writers
    // start only once every reader is running, and a reader stops only
    // after the writers are done and it has checked a snapshot, so reads
    // overlap the writes however the threads are scheduled and
    // `snapshots_checked` cannot stay 0.
    std::atomic<std::size_t> readers_running{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kWriters; ++w) {
        pool.emplace_back([&, w] {
            while (readers_running.load(std::memory_order_acquire) < kReaders) {
                std::this_thread::yield();
            }
            const auto server = static_cast<EntityId>(w + 1);
            stats::Rng rng{0xfaceULL + w};
            for (std::size_t i = 0; i < kPerServer; ++i) {
                store.submit(fb(static_cast<Timestamp>(i + 1), server,
                                rng.bernoulli(0.9)));
            }
        });
    }
    std::atomic<std::size_t> snapshots_checked{0};
    for (std::size_t r = 0; r < kReaders; ++r) {
        pool.emplace_back([&] {
            readers_running.fetch_add(1, std::memory_order_acq_rel);
            std::size_t checked = 0;
            do {
                for (const auto server : store.servers()) {
                    const TransactionHistory snapshot =
                        store.history_snapshot(server);
                    // A snapshot is always a valid time-ordered prefix of
                    // the writer's tape, whatever instant it was taken at.
                    ASSERT_LE(snapshot.size(), kPerServer);
                    ASSERT_LE(snapshot.good_count(), snapshot.size());
                    for (std::size_t i = 1; i < snapshot.size(); ++i) {
                        ASSERT_LE(snapshot[i - 1].time, snapshot[i].time);
                        ASSERT_EQ(snapshot[i].time,
                                  static_cast<Timestamp>(i + 1));
                    }
                    ++checked;
                }
                ASSERT_LE(store.size(), kWriters * kPerServer);
            } while (!done.load(std::memory_order_acquire) || checked == 0);
            snapshots_checked.fetch_add(checked, std::memory_order_relaxed);
        });
    }
    for (std::size_t w = 0; w < kWriters; ++w) pool[w].join();
    done.store(true, std::memory_order_release);
    for (std::size_t r = 0; r < kReaders; ++r) pool[kWriters + r].join();

    EXPECT_EQ(store.size(), kWriters * kPerServer);
    EXPECT_GT(snapshots_checked.load(), 0u);
}

TEST(StoreConcurrency, EvictionInterleavedWithIngestConserves) {
    constexpr std::size_t kWriters = 6;
    constexpr std::size_t kPerServer = 1500;
    FeedbackStore store{8};
    std::atomic<std::size_t> evicted_total{0};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kWriters; ++w) {
        pool.emplace_back([&, w] {
            const auto server = static_cast<EntityId>(w + 1);
            for (std::size_t i = 0; i < kPerServer; ++i) {
                store.submit(fb(static_cast<Timestamp>(i + 1), server, true));
            }
        });
    }
    pool.emplace_back([&] {
        // Retention sweeps racing the writers; each returns how much it
        // actually removed.
        for (int sweep = 0; sweep < 20; ++sweep) {
            evicted_total.fetch_add(store.evict_before(100),
                                    std::memory_order_relaxed);
        }
    });
    for (auto& worker : pool) worker.join();

    const std::size_t final_removed = store.evict_before(100);
    evicted_total.fetch_add(final_removed, std::memory_order_relaxed);
    // Conservation: every submitted feedback is either still resident or
    // was counted by exactly one eviction sweep.
    EXPECT_EQ(store.size() + evicted_total.load(), kWriters * kPerServer);
    // Exactly the t < 100 prefix is gone from every server.
    for (const auto server : store.servers()) {
        const TransactionHistory history = store.history_snapshot(server);
        ASSERT_EQ(history.size(), kPerServer - 99);
        ASSERT_EQ(history[0].time, 100);
    }
}

TEST(StoreConcurrency, AssessmentRacesIngestSafely) {
    // Writers extend a live population while a BatchAssessor repeatedly
    // assesses the servers that existed at the start — the serving-path
    // race the sharded store exists to make safe.
    constexpr std::size_t kServers = 12;
    constexpr std::size_t kWarm = 200;
    constexpr std::size_t kExtra = 1200;
    FeedbackStore store{8};
    for (EntityId s = 1; s <= kServers; ++s) {
        std::vector<Feedback> warm;
        for (std::size_t i = 0; i < kWarm; ++i) {
            warm.push_back(fb(static_cast<Timestamp>(i + 1), s, i % 10 != 0));
        }
        store.ingest_batch(warm);
    }

    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.threads = 4;
    const serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        core::make_calibrator(config.assessment.test.base)};
    const std::vector<EntityId> population = store.servers();

    // Writers start only once an assessor is about to run its first batch,
    // and every assessor runs at least one batch, so writes and batches
    // start together however the threads are scheduled and `batches`
    // cannot stay 0.
    std::atomic<bool> assessing{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < 4; ++w) {
        pool.emplace_back([&, w] {
            while (!assessing.load(std::memory_order_acquire)) std::this_thread::yield();
            stats::Rng rng{0xdeadULL + w};
            for (std::size_t i = 0; i < kExtra; ++i) {
                const auto server =
                    static_cast<EntityId>(1 + (w * kServers / 4) + i % (kServers / 4));
                store.submit(fb(static_cast<Timestamp>(kWarm + i + 1), server,
                                rng.bernoulli(0.9)));
            }
        });
    }
    std::atomic<std::size_t> batches{0};
    for (std::size_t a = 0; a < 2; ++a) {
        pool.emplace_back([&] {
            assessing.store(true, std::memory_order_release);
            do {
                const auto results = assessor.assess(store, population);
                ASSERT_EQ(results.size(), population.size());
                for (std::size_t i = 0; i < results.size(); ++i) {
                    ASSERT_EQ(results[i].server, population[i]);
                }
                batches.fetch_add(1, std::memory_order_relaxed);
            } while (!done.load(std::memory_order_acquire));
        });
    }
    for (std::size_t w = 0; w < 4; ++w) pool[w].join();
    done.store(true, std::memory_order_release);
    for (std::size_t a = 0; a < 2; ++a) pool[4 + a].join();

    EXPECT_GT(batches.load(), 0u);
    EXPECT_EQ(store.size(), kServers * kWarm + 4 * kExtra);
    // The post-race store is still fully assessable and deterministic.
    const auto after = assessor.assess(store, population);
    const auto again = assessor.assess(store, population);
    for (std::size_t i = 0; i < after.size(); ++i) {
        ASSERT_EQ(after[i].assessment.verdict, again[i].assessment.verdict);
    }
}

}  // namespace
}  // namespace hpr::repsys
