// Unit tests for the single-flight memo under the calibrator and the
// reference-model cache (stats/single_flight_cache.h): failure
// propagation to joined waiters, retry after a failed build,
// insert_absent's never-replace rule, eviction and the entries gauge.

#include "stats/single_flight_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace hpr::stats {
namespace {

using IntCache = SingleFlightCache<int, int>;

TEST(SingleFlightCache, HitReturnsTheBuiltHandle) {
    IntCache cache{{}};
    int builds = 0;
    const auto first = cache.get(1, [&] { return ++builds * 10; });
    const auto second = cache.get(1, [&] { return ++builds * 10; });
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(*first, 10);
    EXPECT_EQ(builds, 1);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(SingleFlightCache, FailedBuildReachesEveryJoinedWaiterThenRetries) {
    constexpr std::size_t kWaiters = 3;
    IntCache cache{{}};
    std::atomic<int> builds{0};
    const auto failing_build = [&]() -> int {
        builds.fetch_add(1);
        // Hold the flight open until every waiter has joined it, so the
        // failure provably reaches joined waiters, not later leaders.
        while (cache.stats().single_flight_joins < kWaiters) std::this_thread::yield();
        throw std::runtime_error("build failed");
    };
    std::atomic<std::size_t> failures{0};
    const auto call = [&] {
        try {
            (void)cache.get(5, failing_build);
        } catch (const std::runtime_error&) {
            failures.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    threads.emplace_back(call);
    while (cache.stats().in_flight == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < kWaiters; ++i) threads.emplace_back(call);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(failures.load(), kWaiters + 1);
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.single_flight_joins, kWaiters);

    // The failed key was forgotten: the next lookup builds again.
    EXPECT_EQ(*cache.get(5, [] { return 55; }), 55);
    stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(SingleFlightCache, InsertAbsentNeverReplacesAResidentValue) {
    IntCache cache{{}};
    const auto handle = cache.get(3, [] { return 30; });
    EXPECT_FALSE(cache.insert_absent(3, 99));
    EXPECT_EQ(*handle, 30);
    EXPECT_EQ(cache.get(3, [] { return 77; }).get(), handle.get());
    EXPECT_TRUE(cache.insert_absent(4, 40));
    EXPECT_EQ(*cache.get(4, [] { return 77; }), 40);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);  // insert_absent is not a lookup
}

TEST(SingleFlightCache, ForEachVisitsEveryEntry) {
    IntCache cache{{}};
    for (int k = 0; k < 5; ++k) (void)cache.insert_absent(k, k * k);
    int key_sum = 0;
    int value_sum = 0;
    cache.for_each([&](int key, const IntCache::Handle& value) {
        key_sum += key;
        value_sum += *value;
    });
    EXPECT_EQ(key_sum, 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(value_sum, 0 + 1 + 4 + 9 + 16);
}

TEST(SingleFlightCache, EvictsLeastRecentlyUsedDownToSevenEighths) {
    obs::Counter evictions;
    IntCache cache{{.evictions = &evictions}, 16};
    for (int k = 0; k < 16; ++k) (void)cache.get(k, [k] { return k; });
    (void)cache.get(0, [] { return -1; });   // touch: 0 is now the most recent
    (void)cache.get(16, [] { return 16; });  // 17 > 16 entries: evict to 14
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 14u);
    EXPECT_EQ(stats.evictions, 3u);
    EXPECT_EQ(evictions.value(), 3u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(16));
    for (int k = 1; k <= 3; ++k) EXPECT_FALSE(cache.contains(k)) << k;
}

TEST(SingleFlightCache, EntriesGaugeFollowsInsertEvictClearAndDestruction) {
    obs::Gauge gauge;
    {
        IntCache cache{{.entries = &gauge}, 8};
        for (int k = 0; k < 5; ++k) (void)cache.get(k, [k] { return k; });
        EXPECT_EQ(gauge.value(), 5);
        cache.clear();
        EXPECT_EQ(gauge.value(), 0);
        for (int k = 0; k < 20; ++k) (void)cache.insert_absent(k, k);
        EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(cache.stats().entries));
    }
    EXPECT_EQ(gauge.value(), 0);
}

}  // namespace
}  // namespace hpr::stats
