#ifndef HPR_STATS_SINGLE_FLIGHT_CACHE_H
#define HPR_STATS_SINGLE_FLIGHT_CACHE_H

/// \file single_flight_cache.h
/// The memo mechanism shared by stats::Calibrator (null-distance samples)
/// and stats::ReferenceModelCache (Binomial reference models).
///
/// A read-mostly map from Key to an immutable Value.  Values are handed out
/// as shared_ptr<const Value>, so an entry dropped by eviction or clear()
/// outlives its slot for every reader still holding it.
///
///  * **Hits** take the shared lock and do one hash probe; a bounded cache
///    also stores a relaxed recency stamp.  Nothing is allocated.
///  * **Single-flight misses.**  The first caller of a cold key builds the
///    value outside the lock; later callers of that key join its
///    shared_future instead of building it again.  A failed build hands
///    the exception to every waiter and forgets the key, so a later call
///    retries.
///  * **Stamp eviction.**  When an insert pushes the size past capacity,
///    one pass evicts the least-recently stamped entries down to 7/8 of
///    capacity.  Dropping one victim per insert would cost an O(capacity)
///    scan per miss — quadratic for a working set larger than the bound;
///    batching amortizes eviction to O(1) per insert.
///  * **Observability.**  The owner passes its process-wide obs counters
///    and entries gauge at construction.  The gauge follows inserts,
///    evictions, clear() and destruction, so it stays a sum over live
///    caches.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace hpr::stats {

/// Point-in-time behaviour snapshot of a SingleFlightCache.
/// hits + misses + single_flight_joins equals the number of completed
/// lookups.
struct CacheStats {
    std::size_t hits = 0;    ///< lookups answered from the cache
    std::size_t misses = 0;  ///< cold lookups that built the value (flight leaders)
    std::size_t single_flight_joins = 0;  ///< lookups that waited on an in-flight build
    std::size_t evictions = 0;  ///< entries dropped by the capacity bound
    std::size_t in_flight = 0;  ///< keys being built right now
    std::size_t entries = 0;    ///< values currently resident
};

/// The process-wide obs instruments a cache reports into.  Null members
/// are not recorded.
struct CacheInstruments {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* joins = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* entries = nullptr;
};

/// Thread-safe single-flight memo of immutable values (see file comment).
template <class Key, class Value, class Hash = std::hash<Key>>
class SingleFlightCache {
public:
    using Handle = std::shared_ptr<const Value>;

    static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

    /// \param capacity  maximum resident entries (minimum 1); kUnbounded
    ///                  never evicts.
    explicit SingleFlightCache(CacheInstruments instruments,
                               std::size_t capacity = kUnbounded)
        : instruments_(instruments), capacity_(std::max<std::size_t>(capacity, 1)) {
        // Sized up front: a rehash mid-fill would stall every reader behind
        // the exclusive lock for the whole bucket migration.
        if (bounded()) entries_.reserve(capacity_ + 1);
    }

    ~SingleFlightCache() { record_entries(-static_cast<std::int64_t>(entries_.size())); }

    SingleFlightCache(const SingleFlightCache&) = delete;
    SingleFlightCache& operator=(const SingleFlightCache&) = delete;

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// The value for `key`; on a cold key the first caller runs `build()`
    /// (which returns a Value) and every concurrent caller shares it.
    /// \throws whatever build() throws, to the builder and every joined
    ///         waiter alike.
    template <class Build>
    [[nodiscard]] Handle get(const Key& key, Build&& build) {
        {
            const std::shared_lock lock{mutex_};
            if (const auto it = entries_.find(key); it != entries_.end()) {
                return hit(it->second);
            }
        }
        std::promise<Handle> promise;
        std::shared_future<Handle> flight;
        {
            const std::unique_lock lock{mutex_};
            // Re-check: the key may have landed between the two locks.
            if (const auto it = entries_.find(key); it != entries_.end()) {
                return hit(it->second);
            }
            if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
                flight = it->second;  // join the build already under way
                count(joins_, instruments_.joins);
            } else {
                in_flight_.emplace(key, promise.get_future().share());
                count(misses_, instruments_.misses);
            }
        }
        if (flight.valid()) return flight.get();  // rethrows the builder's failure
        try {
            Handle value = std::make_shared<const Value>(build());
            {
                const std::unique_lock lock{mutex_};
                (void)insert_locked(key, value);
                in_flight_.erase(key);
            }
            promise.set_value(value);
            return value;
        } catch (...) {
            {
                const std::unique_lock lock{mutex_};
                in_flight_.erase(key);  // let a later caller retry the key
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }

    /// Insert `value` unless `key` is resident.  A resident entry is never
    /// replaced, so every handle already handed out stays the answer.
    /// \returns whether the value was inserted.
    bool insert_absent(const Key& key, Value value) {
        Handle handle = std::make_shared<const Value>(std::move(value));
        const std::unique_lock lock{mutex_};
        return insert_locked(key, handle);
    }

    [[nodiscard]] bool contains(const Key& key) const {
        const std::shared_lock lock{mutex_};
        return entries_.contains(key);
    }

    /// Call visit(key, handle) for every resident entry, in unspecified
    /// order, under the shared lock.
    template <class Visit>
    void for_each(Visit&& visit) const {
        const std::shared_lock lock{mutex_};
        for (const auto& [key, entry] : entries_) visit(key, entry.value);
    }

    /// Drop every resident entry (outstanding handles stay valid).
    void clear() {
        const std::unique_lock lock{mutex_};
        record_entries(-static_cast<std::int64_t>(entries_.size()));
        entries_.clear();
    }

    [[nodiscard]] CacheStats stats() const {
        const std::shared_lock lock{mutex_};
        CacheStats snapshot;
        snapshot.hits = hits_.load(std::memory_order_relaxed);
        snapshot.misses = misses_.load(std::memory_order_relaxed);
        snapshot.single_flight_joins = joins_.load(std::memory_order_relaxed);
        snapshot.evictions = evictions_.load(std::memory_order_relaxed);
        snapshot.in_flight = in_flight_.size();
        snapshot.entries = entries_.size();
        return snapshot;
    }

private:
    struct Entry {
        Entry(Handle v, std::uint64_t tick) : value(std::move(v)), stamp(tick) {}
        Handle value;
        std::atomic<std::uint64_t> stamp;  ///< recency stamp (global tick)
    };

    [[nodiscard]] bool bounded() const noexcept { return capacity_ != kUnbounded; }

    [[nodiscard]] std::uint64_t next_stamp() noexcept {
        return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    static void count(std::atomic<std::size_t>& local, obs::Counter* shared,
                      std::size_t by = 1) noexcept {
        local.fetch_add(by, std::memory_order_relaxed);
        if (shared != nullptr) shared->increment(by);
    }

    void record_entries(std::int64_t delta) noexcept {
        if (instruments_.entries != nullptr) instruments_.entries->add(delta);
    }

    Handle hit(Entry& entry) {
        // An unbounded cache never evicts, so it keeps no recency order.
        if (bounded()) entry.stamp.store(next_stamp(), std::memory_order_relaxed);
        count(hits_, instruments_.hits);
        return entry.value;
    }

    /// Insert unless resident; `value` becomes the resident handle either
    /// way.  Requires the exclusive lock.
    bool insert_locked(const Key& key, Handle& value) {
        const auto [it, inserted] = entries_.try_emplace(key, value, next_stamp());
        value = it->second.value;
        if (inserted) {
            record_entries(1);
            evict_to_capacity_locked();
        }
        return inserted;
    }

    /// Stamp eviction (see file comment).  Stamps are unique (a monotone
    /// tick) and hits cannot restamp during the scan (it holds the mutex
    /// exclusively), so exactly the `excess` oldest entries go.
    void evict_to_capacity_locked() {
        if (entries_.size() <= capacity_) return;
        const std::size_t excess = entries_.size() - (capacity_ - capacity_ / 8);
        std::vector<std::uint64_t> stamps;
        stamps.reserve(entries_.size());
        for (const auto& [key, entry] : entries_) {
            stamps.push_back(entry.stamp.load(std::memory_order_relaxed));
        }
        const auto nth = stamps.begin() + static_cast<std::ptrdiff_t>(excess) - 1;
        std::nth_element(stamps.begin(), nth, stamps.end());
        const std::size_t evicted = std::erase_if(entries_, [cutoff = *nth](const auto& item) {
            return item.second.stamp.load(std::memory_order_relaxed) <= cutoff;
        });
        count(evictions_, instruments_.evictions, evicted);
        record_entries(-static_cast<std::int64_t>(evicted));
    }

    CacheInstruments instruments_;
    std::size_t capacity_;
    mutable std::shared_mutex mutex_;
    std::unordered_map<Key, Entry, Hash> entries_;
    /// Keys being built right now; joiners wait on the future while the
    /// builder runs outside the lock.
    std::unordered_map<Key, std::shared_future<Handle>, Hash> in_flight_;

    std::atomic<std::uint64_t> tick_{0};
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> joins_{0};
    std::atomic<std::size_t> evictions_{0};
};

}  // namespace hpr::stats

#endif  // HPR_STATS_SINGLE_FLIGHT_CACHE_H
