// Multi-threaded stress test for the Monte-Carlo calibrator's cache
// (stats/calibrate.h), meant to run under -DHPR_SANITIZE=thread and
// -DHPR_SANITIZE=address as well as plain builds.  Readers look up a
// resident key — threshold() reads the cached null sample through a
// reference taken under the shared lock and used after it is dropped —
// while another thread keeps merging a cache file that contains the same
// key.  Loading must leave the resident sample alone; replacing it would
// free the buffer the readers are still reading.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stop_token>
#include <thread>
#include <vector>

#include "stats/calibrate.h"
#include "temp_path.h"

namespace hpr::stats {
namespace {

TEST(CalibratorStress, LoadCacheRacingThresholdLookups) {
    constexpr std::size_t kReaders = 4;
    constexpr int kLoads = 50;
    const auto path = test::unique_temp_path("hpr_cal_stress.cache");
    Calibrator calibrator;
    const double expected = calibrator.threshold(40, 10, 0.9);
    const double expected_median = calibrator.threshold(40, 10, 0.9, 0.5);
    calibrator.save_cache(path);

    std::atomic<std::size_t> ready{0};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> lookups{0};
    {
        // A jthread requests stop and joins when it leaves this scope, on
        // every path: a load_cache that throws is reported as a test
        // failure instead of std::terminate over joinable readers.
        std::vector<std::jthread> readers;
        readers.reserve(kReaders);
        for (std::size_t t = 0; t < kReaders; ++t) {
            readers.emplace_back([&](const std::stop_token& stop) {
                ready.fetch_add(1, std::memory_order_acq_rel);
                do {
                    if (calibrator.threshold(40, 10, 0.9) != expected ||
                        calibrator.threshold(40, 10, 0.9, 0.5) != expected_median ||
                        calibrator.null_distances(40, 10, 0.9)->size() !=
                            calibrator.config().replications) {
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                    }
                    lookups.fetch_add(1, std::memory_order_relaxed);
                } while (!stop.stop_requested());
            });
        }
        while (ready.load(std::memory_order_acquire) < kReaders) {
            std::this_thread::yield();  // start loading once every reader runs
        }
        for (int i = 0; i < kLoads; ++i) calibrator.load_cache(path);
    }

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(lookups.load(), 0u);
    EXPECT_EQ(calibrator.stats().entries, 1u);
    EXPECT_EQ(calibrator.stats().misses, 1u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hpr::stats
