#ifndef HPR_REPSYS_STORE_H
#define HPR_REPSYS_STORE_H

/// \file store.h
/// Feedback storage substrate.
///
/// The paper (§2) assumes "all the transaction feedbacks are available for
/// trust assessment (e.g., through a central server as in online auction
/// communities, or through special data organization schemes in P2P
/// systems)".  FeedbackStore is that component: a registry that ingests
/// feedbacks for many servers, hands out per-server histories for
/// assessment, and persists to / restores from a directory of CSV logs.
///
/// The store is **sharded and thread-safe**: server ids map onto N
/// lock-striped shards through a splitmix64 mix, so concurrent submitters
/// of different servers almost never contend.  There is one write
/// contract per granularity — `submit` for a single feedback and
/// `ingest_batch` for a batch, which is all-or-nothing across the whole
/// batch — and one read contract: `history_snapshot` copies a server's
/// log under its shard lock, so the copy is a valid time-ordered log no
/// matter what other threads are submitting or evicting.
///
/// Every member function except the move operations is safe to call from
/// any number of threads concurrently.  Multi-shard readers (`servers`,
/// `shard_occupancy`, `save`) lock one shard at a time, so their result
/// is per-shard consistent: a feedback submitted concurrently may or may
/// not be included, but every included per-server history is a valid
/// prefix of the log.  `size` and `server_count` read relaxed atomic
/// counters.
///
/// Shard occupancy and lock contention are exported through the obs
/// registry (`hpr_store_shards`, `hpr_store_shard_occupancy_max`,
/// `hpr_store_shard_contention_total` — docs/scaling.md).

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "repsys/history.h"
#include "repsys/types.h"
#include "stats/rng.h"

namespace hpr::repsys {

/// Thrown by FeedbackStore::ingest_batch when a batch is inadmissible:
/// carries the smallest offending batch index so a protocol front-end
/// can answer "line N is wrong" instead of a bare parse failure.
class BatchRejected : public std::invalid_argument {
public:
    BatchRejected(std::size_t index, const std::string& what)
        : std::invalid_argument(what), index_(index) {}

    /// 0-based position of the first offending feedback in the batch.
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

private:
    std::size_t index_;
};

/// In-memory feedback registry for a population of servers, lock-striped
/// across shards for concurrent ingest and assessment.
class FeedbackStore {
public:
    /// Default shard count: enough stripes that 8 submitting threads
    /// rarely collide, cheap enough that single-threaded callers do not
    /// notice the extra indirection.
    static constexpr std::size_t kDefaultShards = 16;

    /// \param shard_count  lock stripes (>= 1; clamped up to 1).
    explicit FeedbackStore(std::size_t shard_count = kDefaultShards);

    /// Movable (load() returns by value), not copyable.
    FeedbackStore(FeedbackStore&& other) noexcept;
    FeedbackStore& operator=(FeedbackStore&& other) noexcept;

    /// Ingest one feedback (routed to the feedback's server).
    /// \throws std::invalid_argument if it is older than the server's
    /// latest recorded feedback (per-server logs are time-ordered).
    void submit(const Feedback& feedback);

    /// Ingest a batch all-or-nothing across the whole batch: every target
    /// shard is locked in ascending index order, every slice is
    /// validated, and only a fully admissible batch is applied — on
    /// rejection the store is byte-identical to its pre-call state.
    /// This is the network ingest path's transaction contract: a request
    /// either lands completely or not at all, no matter how its records
    /// spread across shards.
    /// \throws BatchRejected carrying the smallest offending batch index
    ///         (a feedback older than its server's latest recorded time,
    ///         counting earlier feedbacks of this very batch).
    void ingest_batch(const std::vector<Feedback>& feedbacks);

    /// Number of servers with at least one feedback.
    [[nodiscard]] std::size_t server_count() const noexcept {
        return static_cast<std::size_t>(
            server_count_.load(std::memory_order_relaxed));
    }

    /// Total feedbacks across all servers.
    [[nodiscard]] std::size_t size() const noexcept {
        return total_.load(std::memory_order_relaxed);
    }

    /// Number of lock stripes.
    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

    /// The shard a server id maps to (stable for the store's lifetime;
    /// exposed for tests and for shard-aware batch planning).
    [[nodiscard]] std::size_t shard_of(EntityId server) const noexcept {
        std::uint64_t state = static_cast<std::uint64_t>(server) + 0x517cc1b727220a95ULL;
        return stats::splitmix64(state) % shards_.size();
    }

    /// Ids of all known servers, ascending.
    [[nodiscard]] std::vector<EntityId> servers() const;

    /// Whether any feedback exists for `server`.
    [[nodiscard]] bool contains(EntityId server) const;

    /// Length of a server's history without copying it (one shard lock);
    /// std::nullopt for unknown servers.  The check-and-read is atomic,
    /// unlike a contains()/history_snapshot() pair racing eviction.
    [[nodiscard]] std::optional<std::size_t> history_length(EntityId server) const;

    /// Where a server's retained log sits in everything ever recorded for
    /// it (see history_extent()).
    struct HistoryExtent {
        std::size_t length = 0;   ///< feedbacks held now
        std::size_t trimmed = 0;  ///< feedbacks evict_before ever cut from its front
    };

    /// A server's length and trimmed count, read together under one shard
    /// lock without copying the log; std::nullopt for unknown servers.
    /// `trimmed == 0` means the log still starts at the server's first
    /// recorded feedback, so a streaming consumer that has folded exactly
    /// `length` of the server's feedbacks, in order, has folded this very
    /// log.  Length alone cannot say that: eviction followed by new
    /// feedback can bring it back to the same number.  A forgotten
    /// server's count goes with it; a server recorded again starts at 0.
    [[nodiscard]] std::optional<HistoryExtent> history_extent(EntityId server) const;

    /// Point-in-time occupancy of one shard (see shard_occupancy()).
    struct ShardOccupancy {
        std::size_t servers = 0;    ///< server logs living on this shard
        std::size_t feedbacks = 0;  ///< feedbacks across those logs
    };

    /// Per-shard occupancy, locking one shard at a time (the same
    /// per-shard consistency as servers()/size()).  Feeds the live
    /// `/store` introspection page; the registry's
    /// hpr_store_shard_occupancy_max gauge is this table's maximum.
    [[nodiscard]] std::vector<ShardOccupancy> shard_occupancy() const;

    /// Consistent copy of a server's history, taken under the shard lock:
    /// always a valid time-ordered prefix-complete log, no matter what
    /// other threads are submitting or evicting.
    /// \throws std::out_of_range for unknown servers.
    [[nodiscard]] TransactionHistory history_snapshot(EntityId server) const;

    /// Drop every feedback strictly older than `cutoff` (retention).
    /// Returns the number of feedbacks removed.  Servers left empty are
    /// forgotten entirely; when `forgotten` is non-null their ids are
    /// appended to it (ascending), so callers keeping per-server derived
    /// state — e.g. serve::BatchAssessor's streaming screener bank — can
    /// drop exactly the streams whose history the store no longer holds.
    std::size_t evict_before(Timestamp cutoff,
                             std::vector<EntityId>* forgotten = nullptr);

    /// Persist one `<server>.csv` per server into `directory` (created if
    /// missing). \throws std::runtime_error on I/O failure.
    void save(const std::string& directory) const;

    /// Load a store persisted with save().
    /// \throws std::runtime_error on I/O or parse failure, or when a file
    ///         mixes servers or names a server another file already did.
    [[nodiscard]] static FeedbackStore load(const std::string& directory,
                                            std::size_t shard_count = kDefaultShards);

private:
    /// One server's retained log and how much eviction cut from its front.
    struct ServerLog {
        TransactionHistory history;
        std::size_t trimmed = 0;
    };

    /// One lock stripe: a mutex and the logs of every server that hashes
    /// onto it.  Heap-allocated so the store stays movable.
    struct Shard {
        mutable std::mutex mutex;
        std::map<EntityId, ServerLog> logs;
    };

    /// Lock a shard, counting contended acquisitions.
    [[nodiscard]] std::unique_lock<std::mutex> lock_shard(const Shard& shard) const;

    [[nodiscard]] Shard& shard_for(EntityId server) noexcept {
        return *shards_[shard_of(server)];
    }
    [[nodiscard]] const Shard& shard_for(EntityId server) const noexcept {
        return *shards_[shard_of(server)];
    }

    /// Publish the mutation-level gauges (last writer wins, like the
    /// pre-sharding store: exact for the one-store-per-process shape).
    void publish_level_metrics() const;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::size_t> total_{0};
    std::atomic<std::int64_t> server_count_{0};
};

}  // namespace hpr::repsys

#endif  // HPR_REPSYS_STORE_H
