// hpr_calibrate — precompute and persist the Monte-Carlo calibration
// cache so production processes start with warm thresholds.
//
//   build/examples/hpr_calibrate [output-path] [threads]
//
// Calibrates the default configuration (window 10, L1, 1000 replications)
// over the window-count grid up to the cap and the p̂ buckets a
// high-reputation deployment actually hits (p in [0.5, 1.0]), fanning the
// grid across the calibrator's worker pool, then writes the cache.  A
// server loads it with `Calibrator::load_cache` and never pays the
// Monte-Carlo warm-up on the request path.  Thresholds are bit-identical
// at any thread count — parallelism only moves the wall clock.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "flags.h"
#include "core/behavior_test.h"
#include "stats/bounds.h"
#include "stats/calibrate.h"
#include "stats/distance.h"

using namespace hpr;

int main(int argc, char** argv) {
    const std::string path =
        argc > 1 ? argv[1]
                 : (std::filesystem::temp_directory_path() / "hpr_calibration.cache")
                       .string();

    stats::CalibrationConfig cal_config;
    if (argc > 2 && !parse_flag_size(argv[2], 0, cal_config.threads)) {
        std::fprintf(stderr, "usage: %s [output-path] [threads]\n", argv[0]);
        return 2;
    }
    stats::Calibrator calibrator{cal_config};
    const auto& config = calibrator.config();
    // Lemma 3.1's explicit N: the history length at which p̂ is within one
    // calibration grid step of p with 95% probability.
    const std::uint64_t grid_history =
        stats::lemma31_min_history(1.0 / config.p_grid, 0.05);
    std::printf(
        "calibrating: kind=%s replications=%zu p-grid=1/%u lemma31-N=%ju "
        "window-cap=%zu threads=%zu\n",
        stats::to_string(config.kind), config.replications, config.p_grid,
        static_cast<std::uintmax_t>(grid_history), config.windows_cap,
        calibrator.threads());

    const auto start = std::chrono::steady_clock::now();
    // The full geometric window grid and the p̂ half deployments care
    // about, fanned across the worker pool in one call.
    const std::size_t computed = core::warm_calibration(
        calibrator, 10, config.windows_cap, 0.5, 1.0);
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::printf("calibrated %zu keys (%zu Monte-Carlo runs) in %.1fs\n",
                calibrator.stats().entries, computed, elapsed);

    calibrator.save_cache(path);
    std::printf("cache written to %s (%ju bytes)\n", path.c_str(),
                static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

    // Prove the round trip: a fresh calibrator loads it and answers with
    // zero Monte-Carlo work.
    stats::Calibrator restored{cal_config};
    restored.load_cache(path);
    const auto warm_start = std::chrono::steady_clock::now();
    (void)restored.threshold(40, 10, 0.9);
    (void)restored.threshold(400, 10, 0.95);
    const auto warm = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - warm_start)
                          .count();
    std::printf("restored calibrator answered 2 queries in %.0f microseconds "
                "(cache size %zu, Monte-Carlo runs %zu)\n",
                warm, restored.stats().entries, restored.stats().misses);
    return 0;
}
