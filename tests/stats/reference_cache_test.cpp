// Unit tests for the shared reference-model cache
// (stats/reference_cache.h): exact-rational keying, bit-identity with
// fresh construction, the LRU capacity bound, and the stats snapshot.

#include "stats/reference_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace hpr::stats {
namespace {

TEST(ReferenceModelCache, RejectsGoodAboveTotal) {
    ReferenceModelCache cache;
    EXPECT_THROW((void)cache.reference(10, 11, 10), std::invalid_argument);
}

TEST(ReferenceModelCache, EmptyHistoryIsDegenerateZero) {
    ReferenceModelCache cache;
    const auto model = cache.reference(10, 0, 0);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->p(), 0.0);
    EXPECT_EQ(model->pmf(0), 1.0);
}

TEST(ReferenceModelCache, ExactRationalKeyingCollapsesEquivalentFractions) {
    ReferenceModelCache cache;
    // 2/4, 1/2 and 500/1000 are the same rational: one construction, and
    // every caller shares the identical model object.
    const auto a = cache.reference(10, 2, 4);
    const auto b = cache.reference(10, 1, 2);
    const auto c = cache.reference(10, 500, 1000);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a.get(), c.get());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ReferenceModelCache, DistinctWindowSizesAreDistinctKeys) {
    ReferenceModelCache cache;
    const auto a = cache.reference(10, 1, 2);
    const auto b = cache.reference(20, 1, 2);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->n(), 10u);
    EXPECT_EQ(b->n(), 20u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ReferenceModelCache, BitIdenticalToFreshConstruction) {
    ReferenceModelCache cache;
    const struct {
        std::uint32_t m;
        std::uint64_t good, total;
    } cases[] = {
        {10, 37, 40},   {10, 40, 40},  {10, 0, 40},  {10, 271, 400},
        {20, 333, 360}, {5, 999, 1000}, {10, 1, 3},   {10, 123456789, 987654321},
    };
    for (const auto& c : cases) {
        const auto cached = cache.reference(c.m, c.good, c.total);
        const Binomial fresh{
            c.m, static_cast<double>(c.good) / static_cast<double>(c.total)};
        // The guarantee is bit-identity, so compare with exact equality.
        ASSERT_EQ(cached->p(), fresh.p()) << c.good << "/" << c.total;
        const auto& lhs = cached->pmf_table();
        const auto& rhs = fresh.pmf_table();
        ASSERT_EQ(lhs.size(), rhs.size());
        for (std::size_t k = 0; k < lhs.size(); ++k) {
            ASSERT_EQ(lhs[k], rhs[k]) << "pmf[" << k << "] of " << c.good << "/"
                                      << c.total;
        }
        for (std::uint32_t k = 0; k <= c.m; ++k) {
            ASSERT_EQ(cached->cdf(k), fresh.cdf(k));
            ASSERT_EQ(cached->survival(k), fresh.survival(k));
        }
    }
}

TEST(ReferenceModelCache, CapacityBoundHoldsUnderThrash) {
    ReferenceModelCache cache{8};
    EXPECT_EQ(cache.capacity(), 8u);
    for (std::uint64_t good = 0; good <= 100; ++good) {
        (void)cache.reference(10, good, 101);  // 101 is prime: no collapsing
    }
    const auto stats = cache.stats();
    EXPECT_LE(stats.entries, 8u);
    EXPECT_EQ(stats.misses, 101u);
    EXPECT_EQ(stats.misses - stats.entries, stats.evictions);
}

TEST(ReferenceModelCache, RecentlyUsedSurvivesEviction) {
    ReferenceModelCache cache{8};
    const auto pinned = cache.reference(10, 1, 101);
    for (std::uint64_t good = 2; good <= 8; ++good) {
        (void)cache.reference(10, good, 101);  // fill to capacity
    }
    (void)cache.reference(10, 1, 101);  // touch: now the most recent entry
    const auto before = cache.stats();
    (void)cache.reference(10, 9, 101);  // overflow triggers eviction
    EXPECT_GE(cache.stats().evictions, 1u);
    const auto again = cache.reference(10, 1, 101);
    EXPECT_EQ(again.get(), pinned.get());  // survived: still the same entry
    EXPECT_EQ(cache.stats().hits, before.hits + 1);
}

TEST(ReferenceModelCache, EvictedModelsOutliveTheirSlot) {
    ReferenceModelCache cache{2};
    const auto model = cache.reference(10, 1, 101);
    for (std::uint64_t good = 2; good <= 20; ++good) {
        (void)cache.reference(10, good, 101);
    }
    // The handle taken before eviction still reads correctly.
    EXPECT_EQ(model->n(), 10u);
    EXPECT_EQ(model->p(), 1.0 / 101.0);
}

TEST(ReferenceModelCache, ClearDropsEntriesButKeepsHandles) {
    ReferenceModelCache cache;
    const auto model = cache.reference(10, 9, 10);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(model->p(), 0.9);
    (void)cache.reference(10, 9, 10);
    EXPECT_EQ(cache.stats().misses, 2u);  // re-fetch after clear is cold
}

TEST(ReferenceModelCache, StatsLookupsAddUp) {
    ReferenceModelCache cache{16};
    std::size_t lookups = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t good = 0; good <= 10; ++good) {
            (void)cache.reference(10, good, 11);
            ++lookups;
        }
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.single_flight_joins, lookups);
    EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ReferenceModelCache, DestructionReturnsItsEntriesToTheGauge) {
    // The gauge is summed over live caches; a dedicated cache (a
    // BehaviorTestConfig::reference_cache) must not inflate it after it
    // is gone.
    const obs::Gauge& gauge = obs::default_registry().gauge("hpr_refmodel_cache_entries");
    const std::int64_t before = gauge.value();
    {
        ReferenceModelCache cache{8};
        for (std::uint64_t good = 1; good <= 5; ++good) {
            (void)cache.reference(10, good, 101);
        }
        EXPECT_EQ(gauge.value(), before + 5);
    }
    EXPECT_EQ(gauge.value(), before);
}

TEST(ReferenceModelCache, ProcessWideIsASingleton) {
    EXPECT_EQ(&ReferenceModelCache::process_wide(),
              &ReferenceModelCache::process_wide());
}

}  // namespace
}  // namespace hpr::stats
