#ifndef HPR_STATS_REFERENCE_CACHE_H
#define HPR_STATS_REFERENCE_CACHE_H

/// \file reference_cache.h
/// Shared read-mostly cache of Binomial reference models.
///
/// Every stage of every behavior test compares an empirical window-count
/// distribution against B(m, p̂) (paper §3.2).  Constructing that reference
/// costs O(m) lgamma/exp evaluations — cheap once, ruinous when the serving
/// path rebuilds it for every suffix of every assessment.  Since p̂ is
/// always the rational good_total / (k·m), the distinct reference models a
/// deployment touches form a small, heavily re-hit set: cache them.
///
/// Keys are the window size m plus the rational p̂ reduced to lowest
/// terms — NOT a quantized bucket.  IEEE-754 division is correctly
/// rounded, so (good/g) / (total/g) and good / total are the same double
/// whenever the integers convert to double exactly (they are below 2^53 in
/// any real workload; callers with larger totals must construct fresh
/// models).  A cached model is therefore bit-identical to a freshly
/// constructed one — verdicts, distances and margins cannot drift by even
/// one ulp.
///
/// The lookup, single-flight construction, capacity-bounded eviction and
/// stats are those of stats::SingleFlightCache (single_flight_cache.h).

#include <cstdint>
#include <memory>

#include "stats/binomial.h"
#include "stats/rng.h"
#include "stats/single_flight_cache.h"

namespace hpr::stats {

/// Thread-safe bounded cache of immutable Binomial reference models keyed
/// by (m, p̂ as an exact reduced rational).
class ReferenceModelCache {
public:
    /// Default resident-model bound.  A key is (m, reduced p̂), and a
    /// suffix ladder touches one key per distinct reduced (good, total)
    /// pair it produces.  A horizon-64, m = 10 serving ladder has 12,601
    /// such keys over all p̂, and the Fig. 9 ladders over 50k- and
    /// 200k-transaction histories together touch ~11.9k, so the bound
    /// holds either working set without evicting.  An m = 10 entry costs
    /// about 470 B of heap, so a full cache is ~7.7 MB (docs/scaling.md,
    /// "Eviction policy").
    static constexpr std::size_t kDefaultCapacity = 16384;

    /// \param capacity  maximum resident entries (minimum 1).
    explicit ReferenceModelCache(std::size_t capacity = kDefaultCapacity);

    /// The reference model B(m, good/total); total == 0 yields B(m, 0).
    ///
    /// Bit-identity with `Binomial{m, double(good)/double(total)}` is
    /// guaranteed while good and total are exactly representable as
    /// doubles (< 2^53).
    /// \throws std::invalid_argument if good > total.
    [[nodiscard]] std::shared_ptr<const Binomial> reference(std::uint32_t m,
                                                            std::uint64_t good,
                                                            std::uint64_t total);

    [[nodiscard]] std::size_t capacity() const noexcept { return cache_.capacity(); }

    /// Snapshot of hit/miss/join/eviction counts and current occupancy.
    [[nodiscard]] CacheStats stats() const { return cache_.stats(); }

    /// Drop every resident model (outstanding shared_ptrs stay valid).
    void clear() { cache_.clear(); }

    /// The process-wide cache used by assessors that are not handed a
    /// dedicated instance (core::BehaviorTestConfig::reference_cache).
    /// Leaked on purpose so it outlives every static-destruction-order
    /// hazard, like obs::default_registry().
    [[nodiscard]] static ReferenceModelCache& process_wide();

private:
    /// p̂ in lowest terms: num/den = good/total with gcd divided out
    /// (0/1 when total == 0).  Exactness of the key is what makes cached
    /// and fresh models bit-identical.
    struct Key {
        std::uint32_t m;
        std::uint64_t num;
        std::uint64_t den;
        auto operator<=>(const Key&) const = default;
    };

    /// splitmix64 mix of (m, num, den).  The hot path is one hash plus
    /// one bucket probe — measurably cheaper than the pointer-chasing
    /// compares of an ordered map at steady-state occupancy.
    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
            std::uint64_t state = key.num + 0x9e3779b97f4a7c15ULL * (key.den + key.m);
            return static_cast<std::size_t>(splitmix64(state));
        }
    };

    [[nodiscard]] static Key make_key(std::uint32_t m, std::uint64_t good,
                                      std::uint64_t total);

    SingleFlightCache<Key, Binomial, KeyHash> cache_;
};

}  // namespace hpr::stats

#endif  // HPR_STATS_REFERENCE_CACHE_H
