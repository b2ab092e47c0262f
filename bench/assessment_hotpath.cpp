// Assessment hot path: screen-only cost of multi-testing a server
// population, with the reference-model cache off (fresh Binomial table
// per ladder stage), cold (first pass fills the cache) and warm
// (steady-state, every stage hits), at 1/2/4/8 screening threads.
//
//   build/bench/assessment_hotpath [--smoke] [--out BENCH_5.json]
//
// Calibration is warmed by an unmeasured pass first, so every lane
// measures pure screening: the window-count ladder, the reference model
// (constructed or fetched), and the distance kernel.  Correctness is
// checked inside the bench: every lane — any cache state, any thread
// count — must reproduce the uncached 1-thread screening digest
// bit-for-bit (verdicts, stage counts, margins, and the failing stage's
// distance/threshold/p̂ bit patterns all feed the digest), because the
// cache keys on the *exact* rational p̂ and the kernels are shared by
// every path.  On hosts with >= 8 hardware threads the full run enforces
// the >= 2x steady-state (warm vs uncached) budget at 8 threads;
// elsewhere (and under --smoke) the ratio is reported only.  Results are
// also written as machine-readable JSON (default BENCH_5.json), and the
// bench ends with the obs registry dump so the hpr_refmodel_cache_*
// counters land in CI logs.

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/behavior_test.h"
#include "core/config.h"
#include "core/multi_test.h"
#include "obs/timer.h"
#include "stats/reference_cache.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

/// Deterministic population: honest-ish outcome tapes with per-server
/// quality in [0.60, 0.98]; every 11th server drops quality mid-stream,
/// so the digest covers failing ladders too.
std::vector<std::vector<std::uint8_t>> make_population(std::size_t servers,
                                                       std::size_t history) {
    std::vector<std::vector<std::uint8_t>> tapes(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        stats::Rng rng{0xa55e55edULL + s};
        const double p = 0.60 + 0.38 * rng.uniform();
        const bool drops = (s % 11) == 10;
        auto& tape = tapes[s];
        tape.reserve(history);
        for (std::size_t i = 0; i < history; ++i) {
            const double p_now = (drops && i >= history / 2) ? p * 0.55 : p;
            tape.push_back(rng.bernoulli(p_now) ? 1 : 0);
        }
    }
    return tapes;
}

std::uint64_t fnv_mix(std::uint64_t digest, std::uint64_t value) noexcept {
    digest ^= value;
    return digest * 1099511628211ULL;
}

/// One server's screening folded to a word: verdict bits, stage count,
/// the min margin's bit pattern, and — when a stage failed — the failing
/// stage's distance, threshold and p̂ bit patterns.  A single ULP of
/// drift anywhere in the ladder changes the digest.
std::uint64_t result_digest(const core::MultiTestResult& result) noexcept {
    std::uint64_t d = 1469598103934665603ULL;  // FNV offset basis
    d = fnv_mix(d, static_cast<std::uint64_t>(result.passed));
    d = fnv_mix(d, static_cast<std::uint64_t>(result.sufficient));
    d = fnv_mix(d, result.stages_run);
    d = fnv_mix(d, std::bit_cast<std::uint64_t>(result.min_margin));
    d = fnv_mix(d, result.failed_suffix_length.value_or(0));
    if (result.failure) {
        d = fnv_mix(d, std::bit_cast<std::uint64_t>(result.failure->distance));
        d = fnv_mix(d, std::bit_cast<std::uint64_t>(result.failure->threshold));
        d = fnv_mix(d, std::bit_cast<std::uint64_t>(result.failure->p_hat));
    }
    return d;
}

/// Screen the whole population on `threads` workers (disjoint contiguous
/// server ranges).  Per-server digests land at their server's index, so
/// the combined digest is independent of the thread count by
/// construction; only bit-level result drift can change it.  Returns
/// elapsed seconds.
double run_screen(const core::MultiTest& tester,
                  const std::vector<std::vector<std::uint8_t>>& tapes,
                  std::size_t threads, std::uint64_t& digest_out) {
    const std::size_t servers = tapes.size();
    std::vector<std::uint64_t> digests(servers, 0);
    const obs::Stopwatch watch;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            const std::size_t begin = servers * t / threads;
            const std::size_t end = servers * (t + 1) / threads;
            for (std::size_t s = begin; s < end; ++s) {
                digests[s] = result_digest(
                    tester.test(std::span<const std::uint8_t>{tapes[s]}));
            }
        });
    }
    for (auto& worker : pool) worker.join();
    const double seconds = watch.seconds();
    std::uint64_t digest = 1469598103934665603ULL;
    for (const std::uint64_t d : digests) digest = fnv_mix(digest, d);
    digest_out = digest;
    return seconds;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    const char* out_path = "BENCH_5.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
            return 2;
        }
    }
    const std::size_t servers = smoke ? 128 : 1000;
    const std::size_t history = smoke ? 120 : 400;
    const std::vector<double> thread_counts{1, 2, 4, 8};

    core::MultiTestConfig config;
    config.bonferroni = true;
    std::printf("assessment_hotpath: %zu servers x %zu outcomes, m=%u%s\n", servers,
                history, config.base.window_size, smoke ? " (smoke)" : "");
    const auto tapes = make_population(servers, history);

    // One calibrator for every lane, warmed by an unmeasured uncached
    // pass: the lanes below never pay Monte-Carlo cost.
    const auto calibrator = core::make_calibrator(config.base);
    config.base.use_reference_cache = false;
    const core::MultiTest uncached{config, calibrator};
    {
        std::uint64_t ignored = 0;
        (void)run_screen(uncached, tapes, 1, ignored);
    }

    // The ladder touches ~servers * stages distinct exact-rational keys;
    // a private cache sized above that working set keeps the warm lane
    // eviction-free (the default capacity is tuned for serving, not for
    // screening a whole population in one sweep).
    const auto cache = std::make_shared<stats::ReferenceModelCache>(std::size_t{1}
                                                                    << 16);

    bench::Series uncached_aps{"uncached_aps", {}};
    bench::Series cold_aps{"cold_aps", {}};
    bench::Series warm_aps{"warm_aps", {}};
    std::uint64_t reference_digest = 0;
    bool digests_match = true;
    const auto population = static_cast<double>(servers);
    for (const double threads : thread_counts) {
        const auto t = static_cast<std::size_t>(threads);

        std::uint64_t uncached_digest = 0;
        const double uncached_s = run_screen(uncached, tapes, t, uncached_digest);
        uncached_aps.values.push_back(population / uncached_s);
        if (threads == 1.0) reference_digest = uncached_digest;

        // Cold lane: a fresh tester *and* an emptied cache, so every
        // stage takes the miss path (construct + insert, single-flight).
        cache->clear();
        config.base.use_reference_cache = true;
        config.base.reference_cache = cache;
        const core::MultiTest cached{config, calibrator};
        std::uint64_t cold_digest = 0;
        const double cold_s = run_screen(cached, tapes, t, cold_digest);
        cold_aps.values.push_back(population / cold_s);

        // Warm lane: same cache, now holding the full working set.
        std::uint64_t warm_digest = 0;
        const double warm_s = run_screen(cached, tapes, t, warm_digest);
        warm_aps.values.push_back(population / warm_s);

        for (const std::uint64_t digest : {uncached_digest, cold_digest, warm_digest}) {
            if (digest != reference_digest) {
                digests_match = false;
                std::fprintf(stderr, "FAIL: digest drift at t=%g\n", threads);
            }
        }
    }

    bench::print_figure("assessment hot path (screenings/s)", "threads",
                        thread_counts, {uncached_aps, cold_aps, warm_aps});
    std::vector<double> warm_speedup;
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
        warm_speedup.push_back(warm_aps.values[i] / uncached_aps.values[i]);
    }
    const double steady_state = warm_speedup.back();
    const auto stats = cache->stats();
    std::printf("\nwarm-cache speedup vs uncached: 1t=%.2fx 8t=%.2fx "
                "(%zu hardware threads)\n",
                warm_speedup.front(), steady_state,
                static_cast<std::size_t>(std::thread::hardware_concurrency()));
    std::printf("cache: %llu hits, %llu misses, %llu joins, %llu evictions, "
                "%zu entries\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.single_flight_joins),
                static_cast<unsigned long long>(stats.evictions), stats.entries);

    if (std::FILE* out = std::fopen(out_path, "w")) {
        std::fprintf(out,
                     "{\n"
                     "  \"bench\": \"assessment_hotpath\",\n"
                     "  \"smoke\": %s,\n"
                     "  \"hardware_threads\": %zu,\n"
                     "  \"servers\": %zu,\n"
                     "  \"history\": %zu,\n"
                     "  \"window_size\": %u,\n",
                     smoke ? "true" : "false",
                     static_cast<std::size_t>(std::thread::hardware_concurrency()),
                     servers, history, config.base.window_size);
        const auto print_array = [out](const char* name,
                                       const std::vector<double>& values) {
            std::fprintf(out, "  \"%s\": [", name);
            for (std::size_t i = 0; i < values.size(); ++i) {
                std::fprintf(out, "%s%.3f", i == 0 ? "" : ", ", values[i]);
            }
            std::fprintf(out, "],\n");
        };
        print_array("threads", thread_counts);
        print_array("uncached_aps", uncached_aps.values);
        print_array("cold_aps", cold_aps.values);
        print_array("warm_aps", warm_aps.values);
        print_array("warm_speedup", warm_speedup);
        std::fprintf(out,
                     "  \"steady_state_speedup\": %.3f,\n"
                     "  \"digests_match\": %s,\n"
                     "  \"reference_digest\": \"0x%016llx\",\n"
                     "  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                     "\"single_flight_joins\": %llu, \"evictions\": %llu, "
                     "\"entries\": %zu}\n"
                     "}\n",
                     steady_state, digests_match ? "true" : "false",
                     static_cast<unsigned long long>(reference_digest),
                     static_cast<unsigned long long>(stats.hits),
                     static_cast<unsigned long long>(stats.misses),
                     static_cast<unsigned long long>(stats.single_flight_joins),
                     static_cast<unsigned long long>(stats.evictions), stats.entries);
        std::fclose(out);
        std::printf("wrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
        return 1;
    }

    if (!digests_match) return 1;
    if (!smoke && std::thread::hardware_concurrency() >= 8 && steady_state < 2.0) {
        std::fprintf(stderr,
                     "FAIL: 8-thread steady-state speedup %.2fx below the 2x budget\n",
                     steady_state);
        return 1;
    }

    bench::print_metrics();
    return 0;
}
