// Multi-threaded stress test for the single-flight memo
// (stats/single_flight_cache.h), meant to run under -DHPR_SANITIZE=thread
// and =address as well as plain builds.  Eight threads stampede one cold
// key whose builder throws on its first call: the failure must reach
// that attempt's waiters, the retry must build exactly once, and no
// caller may hang.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats/single_flight_cache.h"

namespace hpr::stats {
namespace {

constexpr std::size_t kThreads = 8;

TEST(SingleFlightCacheStress, StampedeOnAKeyWhoseFirstBuildThrows) {
    constexpr int kRounds = 200;
    SingleFlightCache<int, int> cache{{}};
    std::atomic<std::size_t> lookups{0};
    std::atomic<std::size_t> wrong{0};
    for (int key = 0; key < kRounds; ++key) {
        std::atomic<int> builds{0};
        std::atomic<std::size_t> ready{0};
        const auto build = [&builds, key]() -> int {
            if (builds.fetch_add(1) == 0) throw std::runtime_error("first build fails");
            return key * 3;
        };
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                ready.fetch_add(1);
                while (ready.load() < kThreads) std::this_thread::yield();
                // Only the first build of the key throws, so a caller sees
                // at most one failure and its retry must succeed.
                for (int attempt = 0; attempt < 2; ++attempt) {
                    lookups.fetch_add(1);
                    try {
                        if (*cache.get(key, build) != key * 3) wrong.fetch_add(1);
                        return;
                    } catch (const std::runtime_error&) {
                    }
                }
                wrong.fetch_add(1);
            });
        }
        for (auto& thread : threads) thread.join();
        // One failed attempt and one successful one, each built once.
        ASSERT_EQ(builds.load(), 2) << "key " << key;
    }
    EXPECT_EQ(wrong.load(), 0u);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u * kRounds);
    EXPECT_EQ(stats.hits + stats.misses + stats.single_flight_joins, lookups.load());
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.entries, static_cast<std::size_t>(kRounds));
}

}  // namespace
}  // namespace hpr::stats
