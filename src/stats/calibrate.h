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
/// Two mechanisms make cold keys cheap:
///
///  * **Chunk-parallel Monte-Carlo.**  The replication loop is split into
///    fixed chunks of kChunkReplications; chunk c draws from an Rng seeded
///    with splitmix64(key_seed + c).  Seeds depend only on the key and the
///    chunk index — never on which thread runs the chunk — so 1, 2, or N
///    worker threads produce the bit-identical sorted null sample.
///  * **Warm start.**  precalibrate() fans a whole key grid across the
///    worker pool up front and composes with save_cache()/load_cache(),
///    so deployments can ship a precomputed cache and never calibrate on
///    the request path.
///
/// The memo itself — hits, single-flight misses, stats — is an unbounded
/// stats::SingleFlightCache (single_flight_cache.h).
///
/// Two quantizations keep the key space small; both err on the
/// conservative side (a slightly *larger* ε, hence fewer false alarms):
///  * p̂ is rounded to a 1/p_grid grid;
///  * the window count k is capped at windows_cap and rounded *down* onto
///    a geometric grid (ratio windows_grid_ratio).  The null distance
///    shrinks as k grows, so evaluating at a smaller k over-estimates ε.
///    The constructor precomputes the grid's points (51 for the defaults;
///    the count grows with log(windows_cap)), so bucketing a k is one
///    binary search rather than a walk up the grid.
/// This is what makes repeated screening of growing histories O(1)
/// amortized — the enabler of the O(n) multi-test timing of §5.5 / Fig. 9.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/binomial.h"
#include "stats/distance.h"
#include "stats/rng.h"
#include "stats/single_flight_cache.h"
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
    /// Fig. 8-style curves and for tests).
    [[nodiscard]] std::shared_ptr<const std::vector<double>> null_distances(
        std::size_t windows, std::uint32_t m, double p_hat);

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

    /// Snapshot of this instance's cache behavior: hit/miss/join counts,
    /// keys currently in flight, and the memo size.  misses counts the
    /// Monte-Carlo computations actually run.
    [[nodiscard]] CacheStats stats() const { return cache_.stats(); }

    /// Persist the memoized null samples so a later process can skip the
    /// Monte-Carlo warm-up (useful for deployments screening at startup).
    /// Keys are written in ascending (windows, m, p_bucket) order, so the
    /// file is a pure function of the cache contents.
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

    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
            std::uint64_t state = (key.windows * 0x9e3779b97f4a7c15ULL) ^
                                  (static_cast<std::uint64_t>(key.m) << 32) ^ key.p_bucket;
            return static_cast<std::size_t>(splitmix64(state));
        }
    };

    [[nodiscard]] Key make_key(std::size_t windows, std::uint32_t m, double p_hat) const;
    [[nodiscard]] std::vector<double> compute_null(const Key& key) const;
    [[nodiscard]] std::string header_line() const;
    [[nodiscard]] ThreadPool& pool() const;

    CalibrationConfig config_;
    /// Sorted points of the geometric window grid up to windows_cap,
    /// built by the constructor (empty when windows_grid_ratio is 1.0).
    std::vector<std::size_t> window_grid_;
    SingleFlightCache<Key, std::vector<double>, KeyHash> cache_;
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
