// Unit tests for the feedback storage substrate (repsys/store.h).

#include "repsys/store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <type_traits>

#include "temp_path.h"

namespace hpr::repsys {
namespace {

Feedback fb(Timestamp t, EntityId server, EntityId client, bool good) {
    return Feedback{t, server, client,
                    good ? Rating::kPositive : Rating::kNegative};
}

FeedbackStore sample_store() {
    FeedbackStore store;
    store.ingest_batch({fb(1, 10, 100, true), fb(2, 10, 101, false),
                        fb(3, 10, 100, true), fb(1, 20, 100, true),
                        fb(5, 20, 102, true)});
    return store;
}

TEST(FeedbackStore, StartsEmpty) {
    const FeedbackStore store;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.server_count(), 0u);
    EXPECT_TRUE(store.servers().empty());
    EXPECT_FALSE(store.contains(1));
}

TEST(FeedbackStore, RoutesByServer) {
    const FeedbackStore store = sample_store();
    EXPECT_EQ(store.size(), 5u);
    EXPECT_EQ(store.server_count(), 2u);
    EXPECT_EQ(store.servers(), (std::vector<EntityId>{10, 20}));
    EXPECT_EQ(store.history_snapshot(10).size(), 3u);
    EXPECT_EQ(store.history_snapshot(20).size(), 2u);
    EXPECT_EQ(store.history_snapshot(10).good_count(), 2u);
}

TEST(FeedbackStore, UnknownServerThrows) {
    const FeedbackStore store = sample_store();
    EXPECT_THROW((void)store.history_snapshot(99), std::out_of_range);
}

TEST(FeedbackStore, RejectsPerServerTimeRegression) {
    FeedbackStore store;
    store.submit(fb(5, 1, 2, true));
    EXPECT_THROW(store.submit(fb(4, 1, 2, true)), std::invalid_argument);
    // A different server has an independent clock.
    store.submit(fb(1, 2, 2, true));
    EXPECT_EQ(store.size(), 2u);
}

TEST(FeedbackStore, EvictBeforeDropsOldFeedback) {
    FeedbackStore store = sample_store();
    const std::size_t removed = store.evict_before(3);
    EXPECT_EQ(removed, 3u);  // t=1,2 of server 10 and t=1 of server 20
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.history_snapshot(10).size(), 1u);
    EXPECT_EQ(store.history_snapshot(10)[0].time, 3);
    EXPECT_EQ(store.history_snapshot(20).size(), 1u);
}

TEST(FeedbackStore, EvictCanForgetServersEntirely) {
    FeedbackStore store = sample_store();
    store.evict_before(100);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.server_count(), 0u);
    EXPECT_FALSE(store.contains(10));
}

TEST(FeedbackStore, EvictReportsForgottenServers) {
    FeedbackStore store{4};
    // Server 1 only has old feedback; 2 has old and new; 3 only new.
    store.submit(Feedback{1, 1, 100, Rating::kPositive});
    store.submit(Feedback{2, 2, 100, Rating::kPositive});
    store.submit(Feedback{9, 2, 100, Rating::kNegative});
    store.submit(Feedback{9, 3, 100, Rating::kPositive});

    // Pre-existing caller contents must survive untouched, with the
    // forgotten ids appended in ascending order after them.
    std::vector<EntityId> forgotten{42};
    EXPECT_EQ(store.evict_before(5, &forgotten), 2u);  // t=1 and t=2
    EXPECT_EQ(forgotten, (std::vector<EntityId>{42, 1}));
    EXPECT_FALSE(store.contains(1));
    EXPECT_TRUE(store.contains(2));

    forgotten.clear();
    EXPECT_EQ(store.evict_before(100, &forgotten), 2u);
    EXPECT_EQ(forgotten, (std::vector<EntityId>{2, 3}));
    EXPECT_EQ(store.server_count(), 0u);

    // Evicting nothing appends nothing; a null out-param stays legal.
    forgotten.clear();
    EXPECT_EQ(store.evict_before(1, &forgotten), 0u);
    EXPECT_TRUE(forgotten.empty());
    EXPECT_EQ(store.evict_before(1, nullptr), 0u);
}

// --- sharding --------------------------------------------------------------

/// First server id in [1, limit] mapping to the given shard, 0 if none.
EntityId server_in_shard(const FeedbackStore& store, std::size_t shard,
                         EntityId avoid = 0) {
    for (EntityId id = 1; id <= 4096; ++id) {
        if (id != avoid && store.shard_of(id) == shard) return id;
    }
    return 0;
}

TEST(FeedbackStoreSharding, ShardOfIsStableAndInRange) {
    const FeedbackStore store{7};
    EXPECT_EQ(store.shard_count(), 7u);
    for (EntityId id = 1; id <= 500; ++id) {
        const std::size_t shard = store.shard_of(id);
        EXPECT_LT(shard, 7u);
        EXPECT_EQ(store.shard_of(id), shard);  // pure function of the id
    }
    // The mix actually spreads: a contiguous id range touches every shard.
    std::vector<bool> hit(7, false);
    for (EntityId id = 1; id <= 500; ++id) hit[store.shard_of(id)] = true;
    for (std::size_t s = 0; s < 7; ++s) EXPECT_TRUE(hit[s]) << "shard " << s;
}

TEST(FeedbackStoreSharding, ZeroShardCountClampsToOne) {
    FeedbackStore store{0};
    EXPECT_EQ(store.shard_count(), 1u);
    store.submit(fb(1, 1, 2, true));
    EXPECT_EQ(store.size(), 1u);
}

TEST(FeedbackStoreSharding, BatchRejectionIsAllOrNothingPerShard) {
    FeedbackStore store{4};
    // Two distinct servers on the same shard: the intra-batch time
    // regression of `bad` must also roll back `good`'s records.
    const EntityId bad = server_in_shard(store, 2);
    const EntityId good = server_in_shard(store, 2, bad);
    ASSERT_NE(bad, 0u);
    ASSERT_NE(good, 0u);
    EXPECT_THROW(
        store.ingest_batch({fb(1, good, 100, true), fb(5, bad, 100, true),
                            fb(3, bad, 101, true)}),
        BatchRejected);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(good));
    EXPECT_FALSE(store.contains(bad));
}

TEST(FeedbackStoreSharding, BatchRejectsRegressionAgainstResidentLog) {
    FeedbackStore store{4};
    store.submit(fb(10, 1, 100, true));
    EXPECT_THROW(store.ingest_batch({fb(9, 1, 100, true)}), BatchRejected);
    EXPECT_EQ(store.history_snapshot(1).size(), 1u);
    // At-or-after the resident tail is fine (equal timestamps allowed).
    store.ingest_batch({fb(10, 1, 101, true), fb(11, 1, 102, false)});
    EXPECT_EQ(store.history_snapshot(1).size(), 3u);
}

TEST(FeedbackStoreSharding, ShardCountDoesNotChangeContents) {
    // The same tape, submitted single-feedback into a 1-shard store and
    // batched into a 7-shard store, must yield bit-identical histories.
    std::vector<Feedback> tape;
    for (int i = 0; i < 200; ++i) {
        tape.push_back(fb(static_cast<Timestamp>(i / 4 + 1),
                          static_cast<EntityId>(1 + i % 9),
                          static_cast<EntityId>(100 + i % 13), i % 5 != 0));
    }
    FeedbackStore sequential{1};
    for (const auto& f : tape) sequential.submit(f);
    FeedbackStore sharded{7};
    sharded.ingest_batch(tape);
    ASSERT_EQ(sharded.servers(), sequential.servers());
    ASSERT_EQ(sharded.size(), sequential.size());
    for (const auto server : sequential.servers()) {
        ASSERT_EQ(sharded.history_snapshot(server).feedbacks(),
                  sequential.history_snapshot(server).feedbacks());
    }
}

TEST(FeedbackStoreSharding, SnapshotIsIndependentOfLaterWrites) {
    FeedbackStore store{4};
    store.ingest_batch({fb(1, 1, 100, true), fb(2, 1, 101, false)});
    const TransactionHistory snapshot = store.history_snapshot(1);
    store.submit(fb(3, 1, 102, true));
    EXPECT_EQ(snapshot.size(), 2u);
    const TransactionHistory later = store.history_snapshot(1);
    EXPECT_EQ(later.size(), 3u);
    // The snapshot was the then-current prefix.
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(snapshot[i], later[i]);
    }
    EXPECT_THROW((void)store.history_snapshot(99), std::out_of_range);
}

static_assert(!std::is_copy_constructible_v<FeedbackStore>);
static_assert(std::is_nothrow_move_constructible_v<FeedbackStore>);

TEST(FeedbackStoreSharding, MovePreservesContents) {
    FeedbackStore original = sample_store();
    FeedbackStore moved = std::move(original);
    EXPECT_EQ(moved.size(), 5u);
    EXPECT_EQ(moved.servers(), (std::vector<EntityId>{10, 20}));

    FeedbackStore assigned{2};
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 5u);
    EXPECT_EQ(assigned.shard_count(), FeedbackStore::kDefaultShards);
    EXPECT_EQ(assigned.history_snapshot(10).size(), 3u);
}

TEST(FeedbackStore, HistoryLengthAnswersWithoutCopying) {
    FeedbackStore store = sample_store();
    ASSERT_TRUE(store.history_length(10).has_value());
    EXPECT_EQ(*store.history_length(10), 3u);
    EXPECT_EQ(*store.history_length(20), 2u);
    EXPECT_FALSE(store.history_length(99).has_value());

    // Eviction that forgets a server flips the answer to nullopt.
    store.evict_before(100);
    EXPECT_FALSE(store.history_length(10).has_value());
}

TEST(FeedbackStore, HistoryExtentCountsWhatEvictionTrimmed) {
    FeedbackStore store = sample_store();
    ASSERT_TRUE(store.history_extent(10).has_value());
    EXPECT_EQ(store.history_extent(10)->length, 3u);
    EXPECT_EQ(store.history_extent(10)->trimmed, 0u);
    EXPECT_FALSE(store.history_extent(99).has_value());

    // Server 10 loses its first two feedbacks, server 20 its first one.
    EXPECT_EQ(store.evict_before(3), 3u);
    EXPECT_EQ(store.history_extent(10)->length, 1u);
    EXPECT_EQ(store.history_extent(10)->trimmed, 2u);
    EXPECT_EQ(store.history_extent(20)->trimmed, 1u);

    // New feedback restores the old length; the trimmed count still tells
    // this log apart from the one that started at the first feedback.
    store.ingest_batch({fb(6, 10, 100, true), fb(7, 10, 100, true)});
    EXPECT_EQ(store.history_extent(10)->length, 3u);
    EXPECT_EQ(store.history_extent(10)->trimmed, 2u);
    store.evict_before(7);
    EXPECT_EQ(store.history_extent(10)->trimmed, 4u);

    // A forgotten server recorded again starts a fresh log.
    store.evict_before(100);
    EXPECT_FALSE(store.history_extent(10).has_value());
    store.submit(fb(200, 10, 100, true));
    EXPECT_EQ(store.history_extent(10)->length, 1u);
    EXPECT_EQ(store.history_extent(10)->trimmed, 0u);
}

TEST(FeedbackStore, ShardOccupancySumsToTotals) {
    FeedbackStore store{8};
    for (EntityId server = 1; server <= 40; ++server) {
        for (Timestamp t = 1; t <= server % 5 + 1; ++t) {
            store.submit(fb(t, server, 100, true));
        }
    }
    const auto occupancy = store.shard_occupancy();
    ASSERT_EQ(occupancy.size(), store.shard_count());
    std::size_t servers = 0, feedbacks = 0;
    for (const auto& shard : occupancy) {
        servers += shard.servers;
        feedbacks += shard.feedbacks;
    }
    EXPECT_EQ(servers, store.server_count());
    EXPECT_EQ(feedbacks, store.size());

    // Each server's log must sit on the shard shard_of() names.
    std::vector<std::size_t> expected(store.shard_count(), 0);
    for (const EntityId server : store.servers()) {
        ++expected[store.shard_of(server)];
    }
    for (std::size_t i = 0; i < occupancy.size(); ++i) {
        EXPECT_EQ(occupancy[i].servers, expected[i]) << "shard " << i;
    }
}

TEST(FeedbackStore, SaveLoadRoundTrip) {
    const FeedbackStore store = sample_store();
    const auto dir = test::unique_temp_path("hpr_store_test");
    store.save(dir);
    const FeedbackStore loaded = FeedbackStore::load(dir);
    EXPECT_EQ(loaded.size(), store.size());
    EXPECT_EQ(loaded.servers(), store.servers());
    for (const EntityId server : {10u, 20u}) {
        EXPECT_EQ(loaded.history_snapshot(server).feedbacks(),
                  store.history_snapshot(server).feedbacks());
    }
    std::filesystem::remove_all(dir);
}

TEST(FeedbackStore, LoadRejectsMissingDirectory) {
    EXPECT_THROW((void)FeedbackStore::load("/nonexistent/hpr_store"),
                 std::runtime_error);
}

TEST(FeedbackStoreIngestBatch, AppliesAValidBatchAtomically) {
    FeedbackStore store{4};
    store.ingest_batch({fb(1, 10, 0, true), fb(2, 20, 0, false),
                        fb(3, 10, 0, true), fb(1, 30, 0, true)});
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.history_snapshot(10).size(), 2u);
    EXPECT_EQ(store.history_snapshot(20).size(), 1u);
    EXPECT_EQ(store.history_snapshot(30).size(), 1u);
}

TEST(FeedbackStoreIngestBatch, RejectionLeavesEveryShardUntouched) {
    FeedbackStore store{4};
    store.submit(fb(5, 10, 0, true));
    // Spread the batch over several servers (hence shards); the offender
    // regresses server 10, which may hash to a LATER shard than some of
    // the valid slices — none of them may land.
    std::vector<Feedback> batch;
    for (EntityId server = 11; server <= 30; ++server) {
        batch.push_back(fb(1, server, 0, true));
    }
    batch.push_back(fb(4, 10, 0, true));  // index 20: precedes t=5
    EXPECT_THROW(store.ingest_batch(batch), BatchRejected);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.server_count(), 1u);
    for (EntityId server = 11; server <= 30; ++server) {
        EXPECT_FALSE(store.contains(server)) << "server " << server;
    }
}

TEST(FeedbackStoreIngestBatch, ReportsTheSmallestOffendingIndex) {
    FeedbackStore store{4};
    std::vector<Feedback> batch{fb(1, 10, 0, true), fb(5, 11, 0, true),
                                fb(3, 11, 0, true),   // index 2 regresses
                                fb(0, 10, 0, false)};  // index 3 regresses too
    try {
        store.ingest_batch(batch);
        FAIL() << "batch should have been rejected";
    } catch (const BatchRejected& rejected) {
        EXPECT_EQ(rejected.index(), 2u);
    }
    EXPECT_EQ(store.size(), 0u);
}

TEST(FeedbackStoreIngestBatch, CountsOrderWithinTheBatchItself) {
    FeedbackStore store{4};
    // Both feedbacks are newer than the (empty) resident log, but the
    // second regresses against the first within the batch.
    EXPECT_THROW(store.ingest_batch({fb(7, 10, 0, true), fb(6, 10, 0, true)}),
                 BatchRejected);
    EXPECT_FALSE(store.contains(10));
    // Equal timestamps are legal (logical clocks may tie).
    store.ingest_batch({fb(7, 10, 0, true), fb(7, 10, 0, false)});
    EXPECT_EQ(store.history_snapshot(10).size(), 2u);
}

TEST(FeedbackStoreIngestBatch, EmptyBatchIsANoOp) {
    FeedbackStore store{4};
    store.ingest_batch({});
    EXPECT_EQ(store.size(), 0u);
}

TEST(FeedbackStore, LoadRejectsAFileMixingServers) {
    const auto dir = test::unique_temp_path("hpr_store_mixed_servers");
    std::filesystem::remove_all(dir);
    sample_store().save(dir);
    {
        // Append server 20's row to server 10's log, after its last time.
        std::ofstream log{std::filesystem::path{dir} / "10.csv", std::ios::app};
        log << "9,20,102,positive\n";
    }
    try {
        (void)FeedbackStore::load(dir);
        FAIL() << "loaded a log naming two servers";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("10.csv"), std::string::npos)
            << error.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(FeedbackStore, LoadRejectsAServerInTwoFiles) {
    const auto dir = test::unique_temp_path("hpr_store_repeated_server");
    std::filesystem::remove_all(dir);
    sample_store().save(dir);
    const std::filesystem::path copy = std::filesystem::path{dir} / "10-copy.csv";
    std::filesystem::copy_file(std::filesystem::path{dir} / "10.csv", copy);
    try {
        (void)FeedbackStore::load(dir);
        FAIL() << "loaded server 10 from two files";
    } catch (const std::runtime_error& error) {
        // Directory order decides which of the two files comes second.
        const std::string what = error.what();
        EXPECT_TRUE(what.find("10.csv") != std::string::npos ||
                    what.find("10-copy.csv") != std::string::npos)
            << what;
        EXPECT_NE(what.find("server 10"), std::string::npos) << what;
    }
    std::filesystem::remove_all(dir);
}

TEST(FeedbackStore, LoadIgnoresNonCsvFiles) {
    const auto dir = test::unique_temp_path("hpr_store_mixed");
    sample_store().save(dir);
    {
        std::ofstream junk{std::filesystem::path{dir} / "notes.txt"};
        junk << "not a feedback log\n";
    }
    const FeedbackStore loaded = FeedbackStore::load(dir);
    EXPECT_EQ(loaded.server_count(), 2u);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpr::repsys
