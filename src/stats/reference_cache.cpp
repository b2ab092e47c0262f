#include "stats/reference_cache.h"

#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"

namespace hpr::stats {

namespace {

/// Reference-model cache metrics, shared by every instance in the process.
CacheInstruments cache_instruments() {
    auto& registry = obs::default_registry();
    static const CacheInstruments instruments{
        .hits = &registry.counter("hpr_refmodel_cache_hits_total",
                                  "Reference-model lookups answered from the cache"),
        .misses = &registry.counter(
            "hpr_refmodel_cache_misses_total",
            "Reference-model lookups that constructed a Binomial table"),
        .evictions = &registry.counter("hpr_refmodel_cache_evictions_total",
                                       "Reference models dropped by the LRU capacity bound"),
        .entries = &registry.gauge("hpr_refmodel_cache_entries",
                                   "Reference models currently resident across all caches"),
    };
    return instruments;
}

}  // namespace

ReferenceModelCache::ReferenceModelCache(std::size_t capacity)
    : cache_(cache_instruments(), capacity) {}

ReferenceModelCache::Key ReferenceModelCache::make_key(std::uint32_t m,
                                                       std::uint64_t good,
                                                       std::uint64_t total) {
    if (good > total) {
        throw std::invalid_argument(
            "ReferenceModelCache: good count exceeds total transactions");
    }
    if (total == 0) return Key{m, 0, 1};
    const std::uint64_t g = std::gcd(good, total);
    return Key{m, good / g, total / g};
}

std::shared_ptr<const Binomial> ReferenceModelCache::reference(std::uint32_t m,
                                                               std::uint64_t good,
                                                               std::uint64_t total) {
    const Key key = make_key(m, good, total);
    return cache_.get(key, [&key] {
        // IEEE-754 division is correctly rounded, so the reduced rational
        // num/den yields the identical double a caller would have computed
        // as good/total — the cached model is bit-for-bit the fresh one.
        return Binomial{key.m,
                        static_cast<double>(key.num) / static_cast<double>(key.den)};
    });
}

ReferenceModelCache& ReferenceModelCache::process_wide() {
    static auto* cache = new ReferenceModelCache{};  // leaked: see header
    return *cache;
}

}  // namespace hpr::stats
