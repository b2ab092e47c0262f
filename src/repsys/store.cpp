#include "repsys/store.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "repsys/io.h"

namespace hpr::repsys {

namespace {

/// Ingest-path metrics, shared by every store in the process.  The level
/// gauges are written last-writer-wins per mutation, which is exact for
/// the intended deployment shape (one store per serving process); the
/// history-length and shard-occupancy gauges are high-water marks.
struct StoreMetrics {
    obs::Counter& ingested;
    obs::Counter& evicted;
    obs::Counter& shard_contention;
    obs::Gauge& servers;
    obs::Gauge& history_length_max;
    obs::Gauge& shards;
    obs::Gauge& shard_occupancy_max;
};

StoreMetrics& store_metrics() {
    auto& registry = obs::default_registry();
    static StoreMetrics metrics{
        registry.counter("hpr_store_ingest_total", "Feedbacks accepted into a store"),
        registry.counter("hpr_store_evicted_total",
                         "Feedbacks dropped by retention eviction"),
        registry.counter("hpr_store_shard_contention_total",
                         "Shard lock acquisitions that found the lock held"),
        registry.gauge("hpr_store_servers", "Servers with at least one feedback"),
        registry.gauge("hpr_store_history_length_max",
                       "High-water mark of a single server's history length"),
        registry.gauge("hpr_store_shards", "Lock stripes of the store"),
        registry.gauge("hpr_store_shard_occupancy_max",
                       "High-water mark of servers resident in a single shard"),
    };
    return metrics;
}

}  // namespace

FeedbackStore::FeedbackStore(std::size_t shard_count) {
    if (shard_count == 0) shard_count = 1;
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        shards_.push_back(std::make_unique<Shard>());
    }
    store_metrics().shards.set(static_cast<std::int64_t>(shard_count));
}

FeedbackStore::FeedbackStore(FeedbackStore&& other) noexcept
    : shards_(std::move(other.shards_)),
      total_(other.total_.load(std::memory_order_relaxed)),
      server_count_(other.server_count_.load(std::memory_order_relaxed)) {
    other.shards_.clear();
    other.total_.store(0, std::memory_order_relaxed);
    other.server_count_.store(0, std::memory_order_relaxed);
}

FeedbackStore& FeedbackStore::operator=(FeedbackStore&& other) noexcept {
    if (this != &other) {
        shards_ = std::move(other.shards_);
        total_.store(other.total_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        server_count_.store(other.server_count_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        other.shards_.clear();
        other.total_.store(0, std::memory_order_relaxed);
        other.server_count_.store(0, std::memory_order_relaxed);
    }
    return *this;
}

std::unique_lock<std::mutex> FeedbackStore::lock_shard(const Shard& shard) const {
    std::unique_lock<std::mutex> lock{shard.mutex, std::try_to_lock};
    if (!lock.owns_lock()) {
        store_metrics().shard_contention.increment();
        lock.lock();
    }
    return lock;
}

void FeedbackStore::publish_level_metrics() const {
    StoreMetrics& metrics = store_metrics();
    metrics.servers.set(server_count_.load(std::memory_order_relaxed));
}

void FeedbackStore::submit(const Feedback& feedback) {
    Shard& shard = shard_for(feedback.server);
    std::size_t log_size = 0;
    std::size_t shard_servers = 0;
    {
        const auto lock = lock_shard(shard);
        auto [it, inserted] = shard.logs.try_emplace(feedback.server);
        it->second.history.append(feedback);  // throws on time regression, state intact
        log_size = it->second.history.size();
        shard_servers = shard.logs.size();
        if (inserted) server_count_.fetch_add(1, std::memory_order_relaxed);
        total_.fetch_add(1, std::memory_order_relaxed);
    }
    StoreMetrics& metrics = store_metrics();
    metrics.ingested.increment();
    metrics.history_length_max.set_max(static_cast<std::int64_t>(log_size));
    metrics.shard_occupancy_max.set_max(static_cast<std::int64_t>(shard_servers));
    publish_level_metrics();
}

void FeedbackStore::ingest_batch(const std::vector<Feedback>& feedbacks) {
    if (feedbacks.empty()) return;
    std::vector<std::vector<std::size_t>> groups(shards_.size());
    for (std::size_t i = 0; i < feedbacks.size(); ++i) {
        groups[shard_of(feedbacks[i].server)].push_back(i);
    }
    // Lock every target shard, ascending.  Single-shard writers take one
    // lock and concurrent ingest_batch calls lock in the same order, so
    // holding several stripes at once cannot deadlock.
    std::vector<std::unique_lock<std::mutex>> locks;
    for (std::size_t s = 0; s < groups.size(); ++s) {
        if (!groups[s].empty()) locks.push_back(lock_shard(*shards_[s]));
    }
    // Validate everything before touching anything.  The offending index
    // reported is the smallest across the whole batch, not the first one
    // some shard happened to see.
    std::size_t offender = feedbacks.size();
    std::string error;
    for (std::size_t s = 0; s < groups.size(); ++s) {
        const auto& group = groups[s];
        if (group.empty()) continue;
        const Shard& shard = *shards_[s];
        std::map<EntityId, Timestamp> pending_last;
        for (const std::size_t i : group) {
            const Feedback& f = feedbacks[i];
            auto [it, inserted] = pending_last.try_emplace(f.server);
            if (inserted) {
                const auto log = shard.logs.find(f.server);
                if (log == shard.logs.end() || log->second.history.empty()) {
                    it->second = f.time;
                } else {
                    it->second = log->second.history.feedbacks().back().time;
                }
            }
            if (f.time < it->second) {
                if (i < offender) {
                    offender = i;
                    error = "FeedbackStore::ingest_batch: feedback " +
                            std::to_string(i) + " at t=" +
                            std::to_string(f.time) + " precedes server " +
                            std::to_string(f.server) +
                            "'s latest feedback at t=" +
                            std::to_string(it->second) +
                            " (whole batch rejected)";
                }
                break;  // later offenders in this shard cannot be smaller
            }
            it->second = f.time;
        }
    }
    if (offender < feedbacks.size()) throw BatchRejected(offender, error);

    // Apply: validated above, so no append can throw mid-batch.
    StoreMetrics& metrics = store_metrics();
    std::size_t max_log = 0;
    std::size_t max_occupancy = 0;
    std::int64_t new_servers = 0;
    for (std::size_t s = 0; s < groups.size(); ++s) {
        const auto& group = groups[s];
        if (group.empty()) continue;
        Shard& shard = *shards_[s];
        for (const std::size_t i : group) {
            const Feedback& f = feedbacks[i];
            auto [it, inserted] = shard.logs.try_emplace(f.server);
            if (inserted) ++new_servers;
            TransactionHistory& history = it->second.history;
            history.append(f);
            if (history.size() > max_log) max_log = history.size();
        }
        if (shard.logs.size() > max_occupancy) max_occupancy = shard.logs.size();
    }
    total_.fetch_add(feedbacks.size(), std::memory_order_relaxed);
    if (new_servers > 0) {
        server_count_.fetch_add(new_servers, std::memory_order_relaxed);
    }
    metrics.ingested.increment(feedbacks.size());
    metrics.history_length_max.set_max(static_cast<std::int64_t>(max_log));
    metrics.shard_occupancy_max.set_max(static_cast<std::int64_t>(max_occupancy));
    publish_level_metrics();
}

std::vector<EntityId> FeedbackStore::servers() const {
    std::vector<EntityId> ids;
    ids.reserve(server_count());
    for (const auto& shard : shards_) {
        const auto lock = lock_shard(*shard);
        for (const auto& [server, log] : shard->logs) ids.push_back(server);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool FeedbackStore::contains(EntityId server) const {
    const Shard& shard = shard_for(server);
    const auto lock = lock_shard(shard);
    return shard.logs.find(server) != shard.logs.end();
}

std::optional<std::size_t> FeedbackStore::history_length(EntityId server) const {
    const auto extent = history_extent(server);
    if (!extent) return std::nullopt;
    return extent->length;
}

std::optional<FeedbackStore::HistoryExtent> FeedbackStore::history_extent(
    EntityId server) const {
    const Shard& shard = shard_for(server);
    const auto lock = lock_shard(shard);
    const auto it = shard.logs.find(server);
    if (it == shard.logs.end()) return std::nullopt;
    return HistoryExtent{it->second.history.size(), it->second.trimmed};
}

std::vector<FeedbackStore::ShardOccupancy> FeedbackStore::shard_occupancy() const {
    std::vector<ShardOccupancy> occupancy(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const auto lock = lock_shard(*shards_[i]);
        occupancy[i].servers = shards_[i]->logs.size();
        for (const auto& [server, log] : shards_[i]->logs) {
            occupancy[i].feedbacks += log.history.size();
        }
    }
    return occupancy;
}

TransactionHistory FeedbackStore::history_snapshot(EntityId server) const {
    const Shard& shard = shard_for(server);
    const auto lock = lock_shard(shard);
    const auto it = shard.logs.find(server);
    if (it == shard.logs.end()) {
        throw std::out_of_range("FeedbackStore::history_snapshot: unknown server " +
                                std::to_string(server));
    }
    return it->second.history;  // copied while the lock is held
}

std::size_t FeedbackStore::evict_before(Timestamp cutoff,
                                        std::vector<EntityId>* forgotten) {
    std::size_t removed = 0;
    std::int64_t forgotten_count = 0;
    std::vector<EntityId> emptied;
    for (const auto& shard_ptr : shards_) {
        Shard& shard = *shard_ptr;
        const auto lock = lock_shard(shard);
        for (auto it = shard.logs.begin(); it != shard.logs.end();) {
            const auto& feedbacks = it->second.history.feedbacks();
            const auto keep_from = std::lower_bound(
                feedbacks.begin(), feedbacks.end(), cutoff,
                [](const Feedback& f, Timestamp t) { return f.time < t; });
            const auto dropped =
                static_cast<std::size_t>(keep_from - feedbacks.begin());
            if (dropped > 0) {
                removed += dropped;
                std::vector<Feedback> kept{keep_from, feedbacks.end()};
                if (kept.empty()) {
                    if (forgotten != nullptr) emptied.push_back(it->first);
                    it = shard.logs.erase(it);
                    ++forgotten_count;
                    continue;
                }
                it->second.history = TransactionHistory{std::move(kept)};
                it->second.trimmed += dropped;
            }
            ++it;
        }
    }
    if (forgotten != nullptr) {
        std::sort(emptied.begin(), emptied.end());
        forgotten->insert(forgotten->end(), emptied.begin(), emptied.end());
    }
    total_.fetch_sub(removed, std::memory_order_relaxed);
    if (forgotten_count > 0) {
        server_count_.fetch_sub(forgotten_count, std::memory_order_relaxed);
    }
    store_metrics().evicted.increment(removed);
    publish_level_metrics();
    return removed;
}

void FeedbackStore::save(const std::string& directory) const {
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec) {
        throw std::runtime_error("FeedbackStore::save: cannot create '" + directory +
                                 "': " + ec.message());
    }
    for (const auto& shard : shards_) {
        const auto lock = lock_shard(*shard);
        for (const auto& [server, log] : shard->logs) {
            const auto path =
                (std::filesystem::path{directory} / (std::to_string(server) + ".csv"))
                    .string();
            save_csv(path, log.history);
        }
    }
}

FeedbackStore FeedbackStore::load(const std::string& directory,
                                  std::size_t shard_count) {
    FeedbackStore store{shard_count};
    if (!std::filesystem::is_directory(directory)) {
        throw std::runtime_error("FeedbackStore::load: '" + directory +
                                 "' is not a directory");
    }
    for (const auto& entry : std::filesystem::directory_iterator(directory)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".csv") continue;
        const std::string path = entry.path().string();
        TransactionHistory log = load_csv(path);
        if (log.empty()) continue;
        const EntityId server = log[0].server;
        for (const Feedback& f : log.feedbacks()) {
            if (f.server != server) {
                throw std::runtime_error("FeedbackStore::load: '" + path +
                                         "' mixes servers " + std::to_string(server) +
                                         " and " + std::to_string(f.server));
            }
        }
        const std::size_t size = log.size();
        if (!store.shard_for(server)
                 .logs.emplace(server, ServerLog{std::move(log)})
                 .second) {
            throw std::runtime_error("FeedbackStore::load: '" + path +
                                     "' repeats server " + std::to_string(server) +
                                     ", already loaded from another file");
        }
        store.total_.fetch_add(size, std::memory_order_relaxed);
        store.server_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return store;
}

}  // namespace hpr::repsys
