#ifndef HPR_STATS_CALIBRATE_H
#define HPR_STATS_CALIBRATE_H

/// \file calibrate.h
/// Monte-Carlo calibration of distribution-distance thresholds.
///
/// The behavior test (paper §3.2) accepts a history iff the L1 distance
/// between the empirical window-count distribution and B(m, p̂) is below a
/// threshold ε chosen for a target confidence (95% by default).  Deriving
/// the exact distribution of the distance is intractable, so — exactly as
/// the paper does — ε is estimated empirically: generate many sets of k
/// iid samples from B(m, p̂), measure their distances to B(m, p̂), and take
/// the confidence-quantile of those distances.
///
/// Calibration cost dominates screening, so the Calibrator memoizes the
/// full sorted null-distance sample per key (k-bucket, m, p̂-bucket).
/// Storing the whole sample instead of a single quantile lets callers ask
/// for any confidence level against one cached simulation — multi-testing
/// uses this for its family-wise (Bonferroni) correction.
///
/// Three mechanisms make the cold path production-grade:
///
///  * **Chunk-parallel Monte-Carlo.**  The replication loop is split into
///    fixed chunks of kChunkReplications; chunk c draws from an Rng seeded
///    with splitmix64(key_seed + c).  Seeds depend only on the key and the
///    chunk index — never on which thread runs the chunk — so 1, 2, or N
///    worker threads produce the bit-identical sorted null sample.
///  * **Single-flight deduplication.**  Threads that miss the same cold
///    key join one in-flight computation instead of each paying for a
///    full Monte-Carlo run (the classic check-then-act race this fixes
///    previously made N concurrent misses cost N runs).
///  * **Warm start.**  precalibrate() fans a whole key grid across the
///    worker pool up front and composes with save_cache()/load_cache(),
///    so deployments can ship a precomputed cache and never calibrate on
///    the request path.
///
/// Two quantizations keep the key space small; both err on the
/// conservative side (a slightly *larger* ε, hence fewer false alarms):
///  * p̂ is rounded to a 1/p_grid grid;
///  * the window count k is capped at windows_cap and rounded *down* onto
///    a geometric grid (ratio windows_grid_ratio).  The null distance
///    shrinks as k grows, so evaluating at a smaller k over-estimates ε.
/// This is what makes repeated screening of growing histories O(1)
/// amortized — the enabler of the O(n) multi-test timing of §5.5 / Fig. 9.

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "stats/binomial.h"
#include "stats/distance.h"
#include "stats/rng.h"
#include "stats/thread_pool.h"

namespace hpr::stats {

/// Tuning knobs for threshold calibration.
struct CalibrationConfig {
    double confidence = 0.95;          ///< default quantile of the null distances
    std::size_t replications = 1000;   ///< Monte-Carlo sample sets per key
    DistanceKind kind = DistanceKind::kL1;
    std::uint32_t p_grid = 256;        ///< p̂ is quantized to multiples of 1/p_grid
    std::uint64_t seed = 0x5ca1ab1eULL;  ///< base seed; each key derives its own stream

    /// Window counts above this cap reuse the cap's null sample.
    std::size_t windows_cap = 2048;

    /// Geometric grid ratio for window-count bucketing (k is rounded DOWN
    /// to the nearest grid point, conservatively inflating ε).  Set to 1.0
    /// for exact per-k calibration.
    double windows_grid_ratio = 1.15;

    /// Worker threads for Monte-Carlo computation and precalibrate().
    /// 0 = one per hardware thread.  The thread count NEVER affects the
    /// computed samples (see the chunk-seeding scheme above), only speed.
    std::size_t threads = 0;
};

/// Point-in-time cache behavior of a Calibrator (see Calibrator::stats()).
/// Lets callers assert cache behavior directly instead of parsing
/// exporter text; the obs registry mirrors the same quantities as
/// process-wide aggregates across all calibrator instances.
struct CalibratorStats {
    std::size_t hits = 0;    ///< lookups answered from the memo cache
    std::size_t misses = 0;  ///< cold lookups that ran Monte-Carlo (flight leaders)
    std::size_t single_flight_joins = 0;  ///< lookups that waited on an in-flight run
    std::size_t in_flight = 0;      ///< keys being computed right now
    std::size_t cache_entries = 0;  ///< distinct keys memoized
};

/// Memoizing Monte-Carlo calibrator. Thread-safe; concurrent misses of
/// the same key share one computation (single-flight).
class Calibrator {
public:
    /// Replications per seeding chunk.  Part of the sampling scheme: the
    /// null sample for a key is a pure function of (seed, replications,
    /// kind, p_grid, kChunkReplications) — it is recorded in the cache
    /// file header so persisted samples can never silently mismatch.
    static constexpr std::size_t kChunkReplications = 32;

    explicit Calibrator(CalibrationConfig config = {});
    ~Calibrator();

    /// Threshold ε at the calibrator's default confidence.
    ///
    /// \param windows  number of window samples k (must be >= 1)
    /// \param m        window size (transactions per window)
    /// \param p_hat    estimated trust value in [0, 1]
    /// \throws std::invalid_argument on out-of-range arguments.
    [[nodiscard]] double threshold(std::size_t windows, std::uint32_t m, double p_hat);

    /// Threshold ε at an explicit confidence in (0, 1).  Uses the same
    /// cached null sample as any other confidence for the key.
    [[nodiscard]] double threshold(std::size_t windows, std::uint32_t m, double p_hat,
                                   double confidence);

    /// The full sorted null-distance sample for a key (useful for plotting
    /// Fig. 8-style curves and for tests).  The reference stays valid
    /// until clear_cache().
    [[nodiscard]] const std::vector<double>& null_distances(std::size_t windows,
                                                            std::uint32_t m,
                                                            double p_hat);

    /// Warm the cache for the cross product windows × window_sizes ×
    /// p_hats, fanning cold keys out across the worker pool.  Arguments
    /// are validated like threshold()'s; duplicate grid points collapse
    /// onto their shared cache key.  Composes with save_cache(): calibrate
    /// once offline, persist, and serve with a cold-start-free calibrator.
    /// \returns the number of keys that were actually computed (cold).
    std::size_t precalibrate(const std::vector<std::size_t>& windows,
                             const std::vector<std::uint32_t>& window_sizes,
                             const std::vector<double>& p_hats);

    [[nodiscard]] const CalibrationConfig& config() const noexcept { return config_; }

    /// The bucketed window count actually used for a requested k.
    [[nodiscard]] std::size_t effective_windows(std::size_t windows) const;

    /// Resolved worker-thread count (config().threads, or the hardware
    /// concurrency when that is 0).
    [[nodiscard]] std::size_t threads() const noexcept;

    /// Number of distinct keys calibrated so far.
    [[nodiscard]] std::size_t cache_size() const;

    /// Number of Monte-Carlo computations actually executed (cache misses
    /// that became the single flight).  A concurrency probe: N threads
    /// racing one cold key must bump this exactly once.
    [[nodiscard]] std::size_t compute_count() const noexcept;

    /// Snapshot of this instance's cache behavior: hit/miss/join counts,
    /// keys currently in flight, and the memo size.  hits + misses +
    /// single_flight_joins equals the number of completed lookups.
    [[nodiscard]] CalibratorStats stats() const;

    /// Drop all memoized null samples.  Invalidates every reference
    /// null_distances() returned, so it must not race lookups
    /// (threshold(), null_distances(), warm-up) on this calibrator.
    void clear_cache();

    /// Persist the memoized null samples so a later process can skip the
    /// Monte-Carlo warm-up (useful for deployments screening at startup).
    /// \throws std::runtime_error on I/O failure.
    void save_cache(const std::string& path) const;

    /// Merge null samples persisted by save_cache() into this cache.
    /// Keys already resident keep their sample (a null sample is a pure
    /// function of its key and the calibration parameters), so loading
    /// is safe while other threads look thresholds up.
    /// The file's calibration parameters (distance kind, replications,
    /// p-grid, seed, chunking) must match this calibrator's, otherwise the
    /// stored samples would answer a different question; every key must
    /// lie on this calibrator's quantization grids.  Corrupt or
    /// hand-edited entries are rejected with a line-numbered error.
    /// \throws std::runtime_error on I/O/parse failure, config mismatch,
    ///         or an invalid/off-grid/duplicate key.
    void load_cache(const std::string& path);

private:
    struct Key {
        std::uint64_t windows;
        std::uint32_t m;
        std::uint32_t p_bucket;
        auto operator<=>(const Key&) const = default;
    };

    [[nodiscard]] Key make_key(std::size_t windows, std::uint32_t m, double p_hat) const;
    [[nodiscard]] std::vector<double> compute_null(const Key& key) const;
    [[nodiscard]] const std::vector<double>& null_for(const Key& key);
    [[nodiscard]] std::string header_line() const;
    [[nodiscard]] ThreadPool& pool() const;

    CalibrationConfig config_;
    /// Read-mostly: threshold hits take the shared side; misses,
    /// warm-up and persistence take it exclusively.
    mutable std::shared_mutex mutex_;
    std::map<Key, std::vector<double>> cache_;

    /// Keys being computed right now; followers wait on the future while
    /// the flight leader runs the Monte-Carlo loop outside the lock.
    std::map<Key, std::shared_future<const std::vector<double>*>> inflight_;

    mutable std::atomic<std::size_t> compute_count_{0};
    mutable std::atomic<std::size_t> hit_count_{0};
    mutable std::atomic<std::size_t> join_count_{0};
    mutable std::once_flag pool_once_;
    mutable std::unique_ptr<ThreadPool> pool_;
};

/// Empirical quantile (linear interpolation between order statistics) of an
/// unsorted sample. \throws std::invalid_argument if values is empty.
[[nodiscard]] double empirical_quantile(std::vector<double> values, double q);

/// Quantile of an already-sorted sample (no copy).
[[nodiscard]] double sorted_quantile(const std::vector<double>& sorted, double q);

}  // namespace hpr::stats

#endif  // HPR_STATS_CALIBRATE_H
