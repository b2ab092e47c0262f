// Unit tests for Monte-Carlo threshold calibration (stats/calibrate.h).

#include "stats/calibrate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

namespace hpr::stats {
namespace {

TEST(EmpiricalQuantile, KnownValues) {
    std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_NEAR(empirical_quantile(v, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(empirical_quantile(v, 1.0), 5.0, 1e-12);
    EXPECT_NEAR(empirical_quantile(v, 0.5), 3.0, 1e-12);
    EXPECT_NEAR(empirical_quantile(v, 0.25), 2.0, 1e-12);
    EXPECT_NEAR(empirical_quantile(v, 0.125), 1.5, 1e-12);  // interpolated
}

TEST(EmpiricalQuantile, SingleElement) {
    EXPECT_EQ(empirical_quantile({7.0}, 0.3), 7.0);
}

TEST(EmpiricalQuantile, UnsortedInputIsHandled) {
    EXPECT_NEAR(empirical_quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.5), 3.0, 1e-12);
}

TEST(EmpiricalQuantile, Rejections) {
    EXPECT_THROW((void)empirical_quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW((void)empirical_quantile({1.0}, -0.1), std::invalid_argument);
    EXPECT_THROW((void)empirical_quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(Calibrator, RejectsBadConfig) {
    CalibrationConfig bad;
    bad.confidence = 0.0;
    EXPECT_THROW(Calibrator{bad}, std::invalid_argument);
    bad = {};
    bad.replications = 0;
    EXPECT_THROW(Calibrator{bad}, std::invalid_argument);
    bad = {};
    bad.p_grid = 0;
    EXPECT_THROW(Calibrator{bad}, std::invalid_argument);
    bad = {};
    bad.windows_cap = 0;
    EXPECT_THROW(Calibrator{bad}, std::invalid_argument);
    bad = {};
    bad.windows_grid_ratio = 0.9;
    EXPECT_THROW(Calibrator{bad}, std::invalid_argument);
}

TEST(Calibrator, RejectsBadArguments) {
    Calibrator cal;
    EXPECT_THROW((void)cal.threshold(0, 10, 0.9), std::invalid_argument);
    EXPECT_THROW((void)cal.threshold(5, 0, 0.9), std::invalid_argument);
    EXPECT_THROW((void)cal.threshold(5, 10, -0.1), std::invalid_argument);
    EXPECT_THROW((void)cal.threshold(5, 10, 1.5), std::invalid_argument);
}

TEST(Calibrator, ThresholdIsPositiveAndBounded) {
    Calibrator cal;
    const double eps = cal.threshold(40, 10, 0.9);
    EXPECT_GT(eps, 0.0);
    EXPECT_LE(eps, 2.0);  // L1 distance between pmfs is at most 2
}

TEST(Calibrator, ThresholdDeterministicAcrossInstances) {
    Calibrator a;
    Calibrator b;
    EXPECT_EQ(a.threshold(40, 10, 0.9), b.threshold(40, 10, 0.9));
}

TEST(Calibrator, ThresholdIndependentOfCallOrder) {
    Calibrator a;
    Calibrator b;
    const double a_first = a.threshold(40, 10, 0.9);
    (void)b.threshold(8, 10, 0.5);
    (void)b.threshold(100, 20, 0.95);
    EXPECT_EQ(b.threshold(40, 10, 0.9), a_first);
}

TEST(Calibrator, ThresholdDecreasesWithMoreWindows) {
    // With more window samples the empirical distribution concentrates on
    // the true pmf, so the 95%-quantile of the null distance shrinks.
    Calibrator cal;
    const double eps_small = cal.threshold(5, 10, 0.9);
    const double eps_mid = cal.threshold(40, 10, 0.9);
    const double eps_large = cal.threshold(400, 10, 0.9);
    EXPECT_GT(eps_small, eps_mid);
    EXPECT_GT(eps_mid, eps_large);
}

TEST(Calibrator, HigherConfidenceGivesHigherThreshold) {
    CalibrationConfig c90;
    c90.confidence = 0.90;
    CalibrationConfig c99;
    c99.confidence = 0.99;
    Calibrator cal90{c90};
    Calibrator cal99{c99};
    EXPECT_LT(cal90.threshold(40, 10, 0.9), cal99.threshold(40, 10, 0.9));
}

TEST(Calibrator, CacheGrowsOncePerKey) {
    Calibrator cal;
    EXPECT_EQ(cal.stats().entries, 0u);
    (void)cal.threshold(40, 10, 0.9);
    EXPECT_EQ(cal.stats().entries, 1u);
    (void)cal.threshold(40, 10, 0.9);
    EXPECT_EQ(cal.stats().entries, 1u);
    // Same p bucket (grid 256): 0.9 and 0.9001 quantize identically.
    (void)cal.threshold(40, 10, 0.9001);
    EXPECT_EQ(cal.stats().entries, 1u);
    // Same window-count bucket on the geometric grid.
    (void)cal.threshold(cal.effective_windows(40), 10, 0.9);
    EXPECT_EQ(cal.stats().entries, 1u);
    // A clearly different window count lands on a new grid point.
    (void)cal.threshold(400, 10, 0.9);
    EXPECT_EQ(cal.stats().entries, 2u);
}

TEST(Calibrator, EffectiveWindowsGridIsMonotoneAndConservative) {
    Calibrator cal;
    std::size_t prev = 0;
    for (std::size_t k = 1; k <= 3000; k += 7) {
        const std::size_t bucket = cal.effective_windows(k);
        ASSERT_LE(bucket, std::min(k, cal.config().windows_cap));  // rounds down
        ASSERT_GE(bucket, prev);                                   // monotone
        // Never more than ~grid-ratio below the requested k (pre-cap).
        if (k <= cal.config().windows_cap) {
            ASSERT_GE(static_cast<double>(bucket) * cal.config().windows_grid_ratio *
                          1.01,
                      static_cast<double>(k));
        }
        prev = bucket;
    }
}

/// The grid walk effective_windows() replaced, kept as its oracle: the
/// largest point <= min(k, cap) of the integer grid 1, 2, 3, ... with
/// ~ratio spacing.
std::size_t walked_effective_windows(std::size_t windows, std::size_t cap, double ratio) {
    std::size_t k = std::min(windows, cap);
    if (ratio > 1.0) {
        std::size_t point = 1;
        std::size_t best = 1;
        while (point <= k) {
            best = point;
            const auto next =
                static_cast<std::size_t>(std::floor(static_cast<double>(point) * ratio));
            point = std::max(point + 1, next);
        }
        k = best;
    }
    return k;
}

TEST(Calibrator, EffectiveWindowsMatchesGridWalk) {
    for (const double ratio : {1.0, 1.05, 1.15, 1.5, 2.0, 3.7}) {
        for (const std::size_t cap : {1, 2, 7, 64, 100, 2048}) {
            CalibrationConfig config;
            config.windows_grid_ratio = ratio;
            config.windows_cap = cap;
            const Calibrator cal{config};
            for (std::size_t k = 1; k <= cap + 50; ++k) {
                ASSERT_EQ(cal.effective_windows(k), walked_effective_windows(k, cap, ratio))
                    << "ratio " << ratio << " cap " << cap << " k " << k;
            }
        }
    }
}

TEST(Calibrator, DefaultWindowGridHas51Points) {
    const Calibrator cal;
    std::set<std::size_t> points;
    for (std::size_t k = 1; k <= cal.config().windows_cap; ++k) {
        points.insert(cal.effective_windows(k));
    }
    EXPECT_EQ(points.size(), 51u);
}

TEST(Calibrator, HugeWindowsCapKeepsTheGridSmall) {
    // A dense windows_cap + 1 table would need 8 TiB here; the grid has a
    // few hundred points.
    CalibrationConfig config;
    config.windows_cap = std::size_t{1} << 40;
    const Calibrator cal{config};
    for (const std::size_t k : {std::size_t{1}, std::size_t{12345678},
                                (std::size_t{1} << 40) - 1, std::size_t{1} << 40,
                                (std::size_t{1} << 40) + 5}) {
        EXPECT_EQ(cal.effective_windows(k),
                  walked_effective_windows(k, config.windows_cap, config.windows_grid_ratio))
            << "k " << k;
    }
}

TEST(Calibrator, ExactModeWithUnitGridRatio) {
    CalibrationConfig config;
    config.windows_grid_ratio = 1.0;
    Calibrator cal{config};
    EXPECT_EQ(cal.effective_windows(41), 41u);
    (void)cal.threshold(40, 10, 0.9);
    (void)cal.threshold(41, 10, 0.9);
    EXPECT_EQ(cal.stats().entries, 2u);
}

TEST(Calibrator, ExplicitConfidenceReusesNullSample) {
    Calibrator cal;
    const double at95 = cal.threshold(40, 10, 0.9, 0.95);
    const double at99 = cal.threshold(40, 10, 0.9, 0.99);
    EXPECT_LT(at95, at99);
    EXPECT_EQ(cal.stats().entries, 1u);  // one null sample serves both
    EXPECT_THROW((void)cal.threshold(40, 10, 0.9, 0.0), std::invalid_argument);
    EXPECT_THROW((void)cal.threshold(40, 10, 0.9, 1.0), std::invalid_argument);
}

TEST(SortedQuantile, MatchesEmpiricalQuantile) {
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
    for (double q : {0.0, 0.25, 0.5, 0.77, 1.0}) {
        EXPECT_NEAR(sorted_quantile(sorted, q), empirical_quantile(sorted, q), 1e-12);
    }
    EXPECT_THROW((void)sorted_quantile({}, 0.5), std::invalid_argument);
}

TEST(Calibrator, WindowsCapSharesThreshold) {
    CalibrationConfig config;
    config.windows_cap = 64;
    Calibrator cal{config};
    const double at_cap = cal.threshold(64, 10, 0.9);
    EXPECT_EQ(cal.threshold(100000, 10, 0.9), at_cap);
    EXPECT_EQ(cal.stats().entries, 1u);
}

TEST(Calibrator, NullDistancesAreSortedAndQuantileConsistent) {
    Calibrator cal;
    const auto distances = *cal.null_distances(40, 10, 0.9);
    ASSERT_EQ(distances.size(), cal.config().replications);
    for (std::size_t i = 1; i < distances.size(); ++i) {
        ASSERT_LE(distances[i - 1], distances[i]);
    }
    const double eps = cal.threshold(40, 10, 0.9);
    // The threshold is the 95%-quantile of exactly this sample.
    EXPECT_NEAR(eps, empirical_quantile(distances, cal.config().confidence), 1e-12);
}

TEST(Calibrator, DegenerateP1HasZeroNullDistance) {
    Calibrator cal;
    // With p = 1 every window is all-good: the sampled empirical pmf is
    // exactly the reference point mass, so the threshold is 0.
    EXPECT_EQ(cal.threshold(40, 10, 1.0), 0.0);
    EXPECT_EQ(cal.threshold(40, 10, 0.0), 0.0);
}

TEST(Calibrator, NearDegeneratePNeverRoundsToZeroThreshold) {
    // Regression: p̂ = 0.999 used to quantize onto the p = 1 bucket whose
    // threshold is exactly 0, condemning any history with one old bad
    // transaction to fail forever.  Non-degenerate p̂ must clamp to the
    // nearest interior bucket instead.
    Calibrator cal;
    EXPECT_GT(cal.threshold(40, 10, 0.9999), 0.0);
    EXPECT_GT(cal.threshold(40, 10, 0.0001), 0.0);
    EXPECT_EQ(cal.threshold(40, 10, 0.9999), cal.threshold(40, 10, 255.0 / 256.0));
}

TEST(Calibrator, SaveLoadRoundTrip) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_calibration.cache").string();
    Calibrator source;
    const double eps_a = source.threshold(40, 10, 0.9);
    const double eps_b = source.threshold(100, 20, 0.95);
    source.save_cache(path);

    Calibrator restored;
    restored.load_cache(path);
    EXPECT_EQ(restored.stats().entries, source.stats().entries);
    EXPECT_EQ(restored.threshold(40, 10, 0.9), eps_a);
    EXPECT_EQ(restored.threshold(100, 20, 0.95), eps_b);
    // Confidence flexibility survives persistence (full null samples).
    EXPECT_EQ(restored.threshold(40, 10, 0.9, 0.5), source.threshold(40, 10, 0.9, 0.5));
    std::remove(path.c_str());
}

TEST(Calibrator, SaveIsIndependentOfFillOrder) {
    // The memo is hashed, so save_cache sorts its keys: the same cache
    // contents must persist to the same bytes whatever the fill order.
    const auto dir = std::filesystem::temp_directory_path();
    const auto forward_path = (dir / "hpr_cal_order_fwd.cache").string();
    const auto backward_path = (dir / "hpr_cal_order_bwd.cache").string();
    CalibrationConfig config;
    config.replications = 64;
    const struct {
        std::size_t windows;
        std::uint32_t m;
        double p;
    } keys[] = {{5, 10, 0.9}, {400, 10, 0.55}, {40, 20, 0.75}, {40, 10, 0.95},
                {2048, 5, 0.5}, {40, 10, 0.6}};
    Calibrator forward{config};
    for (const auto& key : keys) (void)forward.threshold(key.windows, key.m, key.p);
    Calibrator backward{config};
    for (auto it = std::rbegin(keys); it != std::rend(keys); ++it) {
        (void)backward.threshold(it->windows, it->m, it->p);
    }
    forward.save_cache(forward_path);
    backward.save_cache(backward_path);
    const auto slurp = [](const std::string& path) {
        std::ifstream in{path};
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string saved = slurp(forward_path);
    EXPECT_EQ(std::count(saved.begin(), saved.end(), '\n'), 1 + std::ssize(keys));
    EXPECT_EQ(saved, slurp(backward_path));
    std::remove(forward_path.c_str());
    std::remove(backward_path.c_str());
}

TEST(Calibrator, LoadKeepsResidentSamples) {
    // A resident null sample may be referenced by a concurrent reader, so
    // load_cache must not replace it, even with a valid sample that
    // differs.  Build such a file by doubling every distance of a real
    // sample (still sorted, finite and non-negative).
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_cal_resident.cache").string();
    Calibrator cal;
    const double eps = cal.threshold(40, 10, 0.9);
    cal.save_cache(path);
    {
        std::ifstream in{path};
        std::string header;
        std::string body;
        std::getline(in, header);
        std::getline(in, body);
        in.close();
        const auto colon = body.find(':');
        std::istringstream values{body.substr(colon + 1)};
        std::ofstream out{path};
        out.precision(17);
        out << header << '\n' << body.substr(0, colon + 1);
        double v = 0.0;
        while (values >> v) out << ' ' << 2.0 * v;
        out << '\n';
    }
    cal.load_cache(path);
    EXPECT_EQ(cal.stats().entries, 1u);
    EXPECT_EQ(cal.threshold(40, 10, 0.9), eps);

    // The file itself is valid and does carry a different sample.
    Calibrator fresh;
    fresh.load_cache(path);
    EXPECT_EQ(fresh.threshold(40, 10, 0.9), 2.0 * eps);
    std::remove(path.c_str());
}

TEST(Calibrator, LoadRejectsMismatchedConfig) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_calibration_mismatch.cache")
            .string();
    Calibrator source;
    (void)source.threshold(40, 10, 0.9);
    source.save_cache(path);

    CalibrationConfig other;
    other.replications = 500;
    Calibrator incompatible{other};
    EXPECT_THROW(incompatible.load_cache(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Calibrator, LoadRejectsCorruptFiles) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_calibration_bad.cache").string();
    {
        std::ofstream out{path};
        out << "not a calibration cache\n";
    }
    Calibrator cal;
    EXPECT_THROW(cal.load_cache(path), std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(cal.load_cache("/nonexistent/cache"), std::runtime_error);
}

TEST(Calibrator, ConcurrentThresholdQueriesAreSafe) {
    // The calibrator advertises thread safety; hammer one instance from
    // several threads over an overlapping key set and check every thread
    // saw the same values a fresh calibrator computes serially.
    Calibrator shared;
    Calibrator reference;
    constexpr int kThreads = 6;
    constexpr int kQueries = 40;
    std::vector<std::vector<double>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int q = 0; q < kQueries; ++q) {
                    const std::size_t windows = 4 + (q % 7) * 10;
                    const double p = 0.8 + 0.02 * (q % 5);
                    seen[static_cast<std::size_t>(t)].push_back(
                        shared.threshold(windows, 10, p));
                }
            });
        }
        for (auto& thread : threads) thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        for (int q = 0; q < kQueries; ++q) {
            const std::size_t windows = 4 + (q % 7) * 10;
            const double p = 0.8 + 0.02 * (q % 5);
            ASSERT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(q)],
                      reference.threshold(windows, 10, p))
                << "thread " << t << " query " << q;
        }
    }
}

TEST(Calibrator, SingleFlightColdKeyComputesOnce) {
    // Regression for a check-then-act race on the miss path: two threads
    // missing the same key both used to run the full Monte-Carlo
    // computation.  Hammer one cold key from many threads and demand
    // exactly one compute_null execution.
    constexpr int kThreads = 12;
    CalibrationConfig config;
    config.windows_grid_ratio = 1.0;
    config.threads = 1;  // serial chunks: isolates the dedup mechanism
    Calibrator cal{config};
    ASSERT_EQ(cal.stats().misses, 0u);
    std::vector<double> results(kThreads, -1.0);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&cal, &results, t] {
                results[static_cast<std::size_t>(t)] = cal.threshold(500, 10, 0.9);
            });
        }
        for (auto& thread : threads) thread.join();
    }
    EXPECT_EQ(cal.stats().misses, 1u);
    EXPECT_EQ(cal.stats().entries, 1u);
    for (const double r : results) EXPECT_EQ(r, results.front());

    // The stats() snapshot tells the same story without poking internals:
    // one miss did the work, the other eleven lookups either joined the
    // flight or hit the cache just after the leader published, and
    // nothing is left in flight.
    const CacheStats stats = cal.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits + stats.single_flight_joins,
              static_cast<std::size_t>(kThreads) - 1u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Calibrator, ParallelMatchesSerialBitIdentical) {
    // The chunk-seeded scheme must make the sorted null sample a pure
    // function of the key — 1, 2, and 8 worker threads all produce the
    // bit-identical vector, hence bit-identical thresholds.
    const auto run = [](std::size_t threads) {
        CalibrationConfig config;
        config.threads = threads;
        return Calibrator{config};
    };
    Calibrator serial = run(1);
    Calibrator two = run(2);
    Calibrator eight = run(8);
    const struct {
        std::size_t windows;
        std::uint32_t m;
        double p;
    } keys[] = {{5, 10, 0.9}, {40, 10, 0.9}, {40, 20, 0.75}, {400, 10, 0.95},
                {2048, 10, 0.5}};
    for (const auto& key : keys) {
        const auto base = serial.null_distances(key.windows, key.m, key.p);
        ASSERT_EQ(*base, *two.null_distances(key.windows, key.m, key.p))
            << "2 threads diverged at k=" << key.windows;
        ASSERT_EQ(*base, *eight.null_distances(key.windows, key.m, key.p))
            << "8 threads diverged at k=" << key.windows;
        EXPECT_EQ(serial.threshold(key.windows, key.m, key.p),
                  two.threshold(key.windows, key.m, key.p));
        EXPECT_EQ(serial.threshold(key.windows, key.m, key.p),
                  eight.threshold(key.windows, key.m, key.p));
    }
}

TEST(Calibrator, ParallelMatchesSerialAcrossTheFig9Grid) {
    // The full key grid the fig9 bench warms (every geometric window
    // bucket up to the cap, p̂ buckets over [0.85, 0.95]) at 1 vs 4
    // worker threads; reduced replications keep the sweep fast without
    // changing the seeding scheme under test.
    CalibrationConfig config;
    config.replications = 64;
    config.threads = 1;
    Calibrator serial{config};
    config.threads = 4;
    Calibrator parallel{config};

    std::size_t keys_checked = 0;
    for (std::size_t k = 1; k <= serial.config().windows_cap;) {
        const std::size_t bucket = serial.effective_windows(k);
        for (int b = 218; b <= 243; ++b) {  // p̂ buckets covering [0.85, 0.95]
            const double p = b / 256.0;
            ASSERT_EQ(*serial.null_distances(bucket, 10, p),
                      *parallel.null_distances(bucket, 10, p))
                << "k=" << bucket << " p=" << p;
            ASSERT_EQ(serial.threshold(bucket, 10, p), parallel.threshold(bucket, 10, p));
            ++keys_checked;
        }
        std::size_t next = k + 1;
        while (next <= serial.config().windows_cap &&
               serial.effective_windows(next) == bucket) {
            ++next;
        }
        k = next;
    }
    EXPECT_GT(keys_checked, 500u);
    EXPECT_EQ(serial.stats().entries, parallel.stats().entries);
}

TEST(Calibrator, ThreadsResolveToAtLeastOne) {
    Calibrator auto_threads;  // config threads = 0
    EXPECT_GE(auto_threads.threads(), 1u);
    CalibrationConfig config;
    config.threads = 3;
    EXPECT_EQ(Calibrator{config}.threads(), 3u);
}

TEST(Calibrator, PrecalibrateWarmsTheGrid) {
    CalibrationConfig config;
    config.threads = 2;
    Calibrator cal{config};
    const std::vector<std::size_t> windows{5, 40, 400};
    const std::vector<std::uint32_t> sizes{10};
    const std::vector<double> p_hats{0.85, 0.9, 0.95};
    const std::size_t computed = cal.precalibrate(windows, sizes, p_hats);
    EXPECT_EQ(computed, cal.stats().entries);
    EXPECT_EQ(computed, cal.stats().misses);
    EXPECT_GT(computed, 0u);
    // Every grid point now answers from cache: no further Monte-Carlo.
    for (const auto k : windows) {
        for (const auto p : p_hats) {
            (void)cal.threshold(k, 10, p);
        }
    }
    EXPECT_EQ(cal.stats().misses, computed);
    // Re-warming the same grid is free.
    EXPECT_EQ(cal.precalibrate(windows, sizes, p_hats), 0u);
    // And the values equal an unwarmed serial calibrator's.
    Calibrator reference;
    EXPECT_EQ(cal.threshold(40, 10, 0.9), reference.threshold(40, 10, 0.9));
}

TEST(Calibrator, PrecalibrateValidatesArguments) {
    Calibrator cal;
    EXPECT_THROW((void)cal.precalibrate({0}, {10}, {0.9}), std::invalid_argument);
    EXPECT_THROW((void)cal.precalibrate({5}, {0}, {0.9}), std::invalid_argument);
    EXPECT_THROW((void)cal.precalibrate({5}, {10}, {1.5}), std::invalid_argument);
    EXPECT_EQ(cal.stats().entries, 0u);
}

TEST(Calibrator, PrecalibrateComposesWithSaveLoad) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_precalibrate.cache").string();
    CalibrationConfig config;
    config.threads = 2;
    Calibrator warm{config};
    (void)warm.precalibrate({5, 40}, {10}, {0.9, 0.95});
    warm.save_cache(path);

    Calibrator served{config};
    served.load_cache(path);
    EXPECT_EQ(served.stats().entries, warm.stats().entries);
    EXPECT_EQ(served.threshold(40, 10, 0.9), warm.threshold(40, 10, 0.9));
    EXPECT_EQ(served.stats().misses, 0u);  // never ran Monte-Carlo
    std::remove(path.c_str());
}

namespace {

/// Write a single-key cache file that matches `cal`'s header but carries a
/// hand-edited key, returning the path.
std::string write_cache_with_key(Calibrator& cal, const std::string& key_text) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_cal_badkey.cache").string();
    const auto donor =
        (std::filesystem::temp_directory_path() / "hpr_cal_donor.cache").string();
    (void)cal.threshold(5, 10, 0.9);
    cal.save_cache(donor);
    std::ifstream in{donor};
    std::string header;
    std::string body;
    std::getline(in, header);
    std::getline(in, body);
    const auto colon = body.find(':');
    std::ofstream out{path};
    out << header << '\n' << key_text << body.substr(colon) << '\n';
    std::remove(donor.c_str());
    return path;
}

}  // namespace

TEST(Calibrator, LoadRejectsInvalidKeysWithLineNumbers) {
    // A corrupt or hand-edited file must not poison lookups: zero fields,
    // off-grid window counts, and out-of-range p buckets are all rejected,
    // and the error names the offending line.
    const struct {
        const char* key_text;
        const char* reason;
    } cases[] = {
        {"0 10 230", "windows == 0"},
        {"5 0 230", "m == 0"},
        {"15 10 230", "off the geometric window grid"},  // grid: ...14, 16...
        {"4096 10 230", "beyond windows_cap"},
        {"5 10 999", "p bucket beyond p_grid"},
    };
    for (const auto& test_case : cases) {
        Calibrator donor;
        const auto path = write_cache_with_key(donor, test_case.key_text);
        Calibrator cal;
        try {
            cal.load_cache(path);
            FAIL() << "accepted " << test_case.reason;
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string{error.what()}.find("line 2"), std::string::npos)
                << "no line number for " << test_case.reason << ": " << error.what();
        }
        EXPECT_EQ(cal.stats().entries, 0u) << test_case.reason;
        std::remove(path.c_str());
    }
}

TEST(Calibrator, LoadRejectsDuplicateKeys) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_cal_dup.cache").string();
    Calibrator donor;
    (void)donor.threshold(5, 10, 0.9);
    donor.save_cache(path);
    {
        // Append a copy of the only body line: same key twice.
        std::ifstream in{path};
        std::string header;
        std::string body;
        std::getline(in, header);
        std::getline(in, body);
        in.close();
        std::ofstream out{path, std::ios::app};
        out << body << '\n';
    }
    Calibrator cal;
    try {
        cal.load_cache(path);
        FAIL() << "accepted a duplicate key";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("line 3"), std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(Calibrator, LoadRejectsTruncatedSamples) {
    Calibrator donor;
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_cal_trunc.cache").string();
    (void)donor.threshold(5, 10, 0.9);
    donor.save_cache(path);
    {
        std::ifstream in{path};
        std::string header;
        std::string body;
        std::getline(in, header);
        std::getline(in, body);
        in.close();
        // Drop the last sample: the replication count no longer matches.
        body = body.substr(0, body.rfind(' '));
        std::ofstream out{path};
        out << header << '\n' << body << '\n';
    }
    Calibrator cal;
    EXPECT_THROW(cal.load_cache(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Calibrator, DistanceKindIsRespected) {
    CalibrationConfig ks;
    ks.kind = DistanceKind::kKolmogorovSmirnov;
    Calibrator cal_ks{ks};
    Calibrator cal_l1;
    // KS distance <= TV = L1/2, so the calibrated thresholds must differ.
    EXPECT_LT(cal_ks.threshold(40, 10, 0.9), cal_l1.threshold(40, 10, 0.9));
}

}  // namespace
}  // namespace hpr::stats
