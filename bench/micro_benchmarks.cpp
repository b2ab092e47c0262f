// Google-benchmark microbenchmarks for the library's hot paths: the
// binomial pmf construction, window reduction, single and multi behavior
// tests, the issuer re-ordering of collusion-resilient testing, and the
// trust-function accumulators.  These complement the figure benches
// (fig3..fig9) with per-operation cost visibility.

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/changepoint.h"
#include "core/collusion.h"
#include "core/multi_test.h"
#include "core/online.h"
#include "repsys/trust.h"
#include "sim/generators.h"
#include "stats/distance.h"
#include "stats/empirical.h"
#include "stats/reference_cache.h"

namespace {

using namespace hpr;  // NOLINT: bench file, keep call sites readable

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

std::vector<std::uint8_t> outcomes_of(std::size_t n) {
    stats::Rng rng{n * 2654435761u + 7};
    return sim::honest_outcomes(n, 0.9, rng);
}

repsys::TransactionHistory history_of(std::size_t n, std::uint32_t clients) {
    stats::Rng rng{n * 40503u + 11};
    return sim::honest_history(n, 0.9, rng, 1, sim::ClientIdScheme{100, clients});
}

void BM_BinomialConstruct(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        const stats::Binomial b{n, 0.9};
        benchmark::DoNotOptimize(b.pmf_table().data());
    }
}
BENCHMARK(BM_BinomialConstruct)->Arg(10)->Arg(50)->Arg(200);

void BM_ReferenceModelCached(benchmark::State& state) {
    // Steady-state cost of fetching a reference model from the shared
    // cache (shared-lock map hit + recency stamp) vs BM_BinomialConstruct,
    // which is what every ladder stage paid before the cache existed.
    // Cycles 64 distinct exact-rational keys so the map lookup is real.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    stats::ReferenceModelCache cache{1024};
    std::uint64_t i = 0;
    for (auto _ : state) {
        const std::uint64_t good = 800 + (i++ & 63);
        benchmark::DoNotOptimize(cache.reference(n, good, 1000).get());
    }
}
BENCHMARK(BM_ReferenceModelCached)->Arg(10)->Arg(50)->Arg(200);

void BM_ReferenceModelUncached(benchmark::State& state) {
    // The miss path: every iteration constructs and caches a never-seen
    // key (the cache is cleared once it nears capacity, off the clock).
    const auto n = static_cast<std::uint32_t>(state.range(0));
    stats::ReferenceModelCache cache{1 << 20};
    std::uint64_t i = 0;
    for (auto _ : state) {
        if ((i & 0xffff) == 0xffff) {
            state.PauseTiming();
            cache.clear();
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(cache.reference(n, ++i, 1ULL << 52).get());
    }
}
BENCHMARK(BM_ReferenceModelUncached)->Arg(10)->Arg(50)->Arg(200);

void BM_DistanceKernel(benchmark::State& state) {
    // The branch-free distance kernels over a counts table and a cached
    // pmf span: range(0) = support size (window size m), range(1) =
    // DistanceKind.  This is the per-stage cost after the reference model
    // is a cache hit.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto kind = static_cast<stats::DistanceKind>(state.range(1));
    const stats::Binomial reference{n, 0.9};
    stats::Rng rng{99};
    stats::EmpiricalDistribution counts{n};
    for (int i = 0; i < 200; ++i) counts.add(reference.sample(rng));
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::distance(counts, reference, kind));
    }
    state.SetLabel(stats::to_string(kind));
}
BENCHMARK(BM_DistanceKernel)
    ->ArgsProduct({{10, 50, 200},
                   {static_cast<long>(stats::DistanceKind::kL1),
                    static_cast<long>(stats::DistanceKind::kL2),
                    static_cast<long>(stats::DistanceKind::kChiSquare),
                    static_cast<long>(stats::DistanceKind::kKolmogorovSmirnov)}});

void BM_BinomialSample(benchmark::State& state) {
    const stats::Binomial b{10, 0.9};
    stats::Rng rng{12345};
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.sample(rng));
    }
}
BENCHMARK(BM_BinomialSample);

void BM_WindowStats(benchmark::State& state) {
    const auto outcomes = outcomes_of(static_cast<std::size_t>(state.range(0)));
    const std::span<const std::uint8_t> view{outcomes};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::compute_window_stats(view, 10).good_total);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WindowStats)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SingleBehaviorTest(benchmark::State& state) {
    const core::BehaviorTest tester{{}, shared_cal()};
    const auto outcomes = outcomes_of(static_cast<std::size_t>(state.range(0)));
    const std::span<const std::uint8_t> view{outcomes};
    (void)tester.test(view);  // warm calibration
    for (auto _ : state) {
        benchmark::DoNotOptimize(tester.test(view).passed);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SingleBehaviorTest)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MultiBehaviorTest(benchmark::State& state) {
    core::MultiTestConfig config;
    config.stop_on_failure = false;
    const core::MultiTest tester{config, shared_cal()};
    const auto outcomes = outcomes_of(static_cast<std::size_t>(state.range(0)));
    const std::span<const std::uint8_t> view{outcomes};
    (void)tester.test(view);  // warm calibration
    for (auto _ : state) {
        benchmark::DoNotOptimize(tester.test(view).passed);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultiBehaviorTest)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CalibrationColdKey(benchmark::State& state) {
    // Wall time of one cold Monte-Carlo calibration (1000 replications)
    // with a given worker-pool size: range(0) = window count (the key's
    // cost driver), range(1) = threads.  The chunk-seeded scheme makes
    // the resulting threshold bit-identical across thread counts, so the
    // 1-vs-N rows measure pure scaling of the same computation.
    stats::CalibrationConfig config;
    config.windows_grid_ratio = 1.0;
    config.threads = static_cast<std::size_t>(state.range(1));
    for (auto _ : state) {
        state.PauseTiming();
        stats::Calibrator calibrator{config};
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            calibrator.threshold(static_cast<std::size_t>(state.range(0)), 10, 0.9));
    }
    state.SetLabel(std::to_string(state.range(1)) + " thread(s)");
}
BENCHMARK(BM_CalibrationColdKey)
    ->ArgsProduct({{10, 100, 1000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PrecalibrateGrid(benchmark::State& state) {
    // Warm-start fan-out: the full fig9-style grid (geometric window grid
    // to 512, p̂ in [0.85, 0.95]) across a pool of range(0) threads.
    core::BehaviorTestConfig test_config;
    test_config.calibration_threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        const auto calibrator = core::make_calibrator(test_config);
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            core::warm_calibration(*calibrator, 10, 512, 0.85, 0.95));
    }
    state.SetLabel(std::to_string(state.range(0)) + " thread(s)");
}
BENCHMARK(BM_PrecalibrateGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CalibrationSingleFlight(benchmark::State& state) {
    // range(0) client threads all missing the SAME cold key: single-flight
    // dedup means the whole stampede costs ~one Monte-Carlo run.
    const auto contenders = static_cast<std::size_t>(state.range(0));
    stats::CalibrationConfig config;
    config.windows_grid_ratio = 1.0;
    config.threads = 1;  // isolate dedup from chunk parallelism
    for (auto _ : state) {
        state.PauseTiming();
        stats::Calibrator calibrator{config};
        state.ResumeTiming();
        std::vector<std::thread> clients;
        clients.reserve(contenders);
        for (std::size_t t = 0; t < contenders; ++t) {
            clients.emplace_back(
                [&calibrator] { benchmark::DoNotOptimize(calibrator.threshold(500, 10, 0.9)); });
        }
        for (auto& client : clients) client.join();
        state.PauseTiming();
        if (calibrator.stats().misses != 1) {
            state.SkipWithError("single-flight failed to deduplicate");
        }
        state.ResumeTiming();
    }
    state.SetLabel(std::to_string(contenders) + " contending threads, 1 MC run");
}
BENCHMARK(BM_CalibrationSingleFlight)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CalibratorThresholdHit(benchmark::State& state) {
    // The per-stage threshold lookup of a serving suffix ladder against a
    // warm calibrator: one iteration is one call, cycling through the 31
    // (k, p̂) stages of a horizon-64, m = 10, step-2 ladder over an honest
    // history at the Bonferroni-corrected confidence.  Every call is a
    // cache hit; what is left is key bucketing plus the quantile read.
    constexpr std::uint32_t kWindowSize = 10;
    constexpr std::size_t kHorizon = 64;
    constexpr std::size_t kMinWindows = 3;
    constexpr std::size_t kStep = 2;
    const auto outcomes = outcomes_of(kHorizon * kWindowSize);
    std::vector<std::pair<std::size_t, double>> ladder;
    for (std::size_t k = kHorizon; k >= kMinWindows; k -= kStep) {
        std::size_t good = 0;
        for (std::size_t i = outcomes.size() - k * kWindowSize; i < outcomes.size(); ++i) {
            good += outcomes[i];
        }
        ladder.emplace_back(k, static_cast<double>(good) /
                                   static_cast<double>(k * kWindowSize));
    }
    const double confidence = 1.0 - 0.05 / static_cast<double>(ladder.size());
    auto& calibrator = *shared_cal();
    for (const auto& [k, p_hat] : ladder) {
        (void)calibrator.threshold(k, kWindowSize, p_hat, confidence);  // warm
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [k, p_hat] = ladder[i];
        benchmark::DoNotOptimize(calibrator.threshold(k, kWindowSize, p_hat, confidence));
        if (++i == ladder.size()) i = 0;
    }
}
BENCHMARK(BM_CalibratorThresholdHit);

void BM_ReorderByIssuer(benchmark::State& state) {
    const auto history = history_of(static_cast<std::size_t>(state.range(0)), 64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::reorder_by_issuer(history.view()).size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReorderByIssuer)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TrustAccumulator(benchmark::State& state) {
    static const char* kSpecs[] = {"average", "weighted:0.5", "beta", "decay:0.98"};
    const auto trust = repsys::make_trust_function(
        kSpecs[static_cast<std::size_t>(state.range(0))]);
    stats::Rng rng{777};
    const auto acc = trust->make_accumulator();
    for (auto _ : state) {
        acc->update(rng.bernoulli(0.9));
        benchmark::DoNotOptimize(acc->value());
    }
    state.SetLabel(trust->name());
}
BENCHMARK(BM_TrustAccumulator)->DenseRange(0, 3);

void BM_OnlineScreenerObserve(benchmark::State& state) {
    core::OnlineScreener screener{{}, shared_cal()};
    stats::Rng rng{31};
    for (int i = 0; i < 500; ++i) screener.observe(rng.bernoulli(0.9));
    for (auto _ : state) {
        screener.observe(rng.bernoulli(0.9));
        benchmark::DoNotOptimize(screener.state());
    }
}
BENCHMARK(BM_OnlineScreenerObserve);

void BM_ChangePointDetect(benchmark::State& state) {
    const core::ChangePointDetector detector;
    stats::Rng rng{32};
    auto outcomes = sim::honest_outcomes(static_cast<std::size_t>(state.range(0)) / 2,
                                         0.95, rng);
    const auto tail = sim::honest_outcomes(
        static_cast<std::size_t>(state.range(0)) / 2, 0.7, rng);
    outcomes.insert(outcomes.end(), tail.begin(), tail.end());
    const std::span<const std::uint8_t> view{outcomes};
    for (auto _ : state) {
        benchmark::DoNotOptimize(detector.detect(view).size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChangePointDetect)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
