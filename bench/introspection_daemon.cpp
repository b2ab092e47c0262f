// Introspection-daemon interference: does a live scraper hammering the
// epoll front-end perturb the assessment hot path?
//
//   build/bench/introspection_daemon [--smoke] [--out BENCH_7.json]
//
// The deployment shape under test is examples/reputation_server
// --listen: one process ingesting feedback, answering assessments, AND
// serving its introspection tree (/metrics, /servers, /traces, /store)
// to a monitoring scraper.  The daemon's design claim is that scrapes
// are isolated — one event-loop thread, snapshot-read endpoints, at
// most one shard/stripe lock held at a time — so scraping must not
// move the assessment tail.
//
// Method: a population is ingested and calibration fully warmed, then a
// background thread keeps streaming fresh feedback (store.submit +
// assessor.observe) for the whole run while the main thread times
// assess() calls over a fixed server sample.  Segments alternate
// baseline / scraping (A/B/A/B..., pooled per lane, so slow drift in
// the host lands in both lanes equally); during scraping segments a
// client thread loops over every endpoint through net::http_get as
// fast as the server answers.  Self-checks: every scrape must return
// 200 with a non-empty body, /metrics must contain the serving
// counters, and the scrape lane must have completed scrapes.  On hosts
// with >= 8 hardware threads the full run enforces the interference
// budget p99(scrape) <= 1.25 x p99(baseline); elsewhere (and under
// --smoke) the ratio is reported only.  Results land in BENCH_7.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/behavior_test.h"
#include "core/two_phase.h"
#include "net/endpoints.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

double p99_us(std::vector<double>& seconds) {
    if (seconds.empty()) return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const std::size_t index =
        static_cast<std::size_t>(0.99 * static_cast<double>(seconds.size() - 1));
    return seconds[index] * 1e6;
}

struct ScraperStats {
    std::uint64_t scrapes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t failures = 0;
};

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    const char* out_path = "BENCH_7.json";
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
    const std::size_t servers = smoke ? 64 : 512;
    const std::size_t history = smoke ? 120 : 300;
    const std::size_t segments = smoke ? 4 : 10;  // per lane, interleaved
    const std::size_t calls_per_segment = smoke ? 10 : 50;
    const std::size_t sample_size = 64;

    std::printf("introspection_daemon: %zu servers x %zu feedbacks, "
                "%zu+%zu alternating segments x %zu assess calls%s\n",
                servers, history, segments, segments, calls_per_segment,
                smoke ? " (smoke)" : "");

    // --- population + warmed serving layer --------------------------------
    repsys::FeedbackStore store{32};
    for (std::size_t s = 0; s < servers; ++s) {
        stats::Rng rng{0xdaeb0a7dULL + s};
        const double p = 0.65 + 0.33 * rng.uniform();
        std::vector<repsys::Feedback> tape;
        tape.reserve(history);
        for (std::size_t i = 0; i < history; ++i) {
            tape.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1),
                static_cast<repsys::EntityId>(s + 1),
                static_cast<repsys::EntityId>(5000 + rng.uniform_int(std::uint64_t{97})),
                rng.bernoulli(p) ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative});
        }
        store.ingest_batch(tape);
    }

    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    const auto calibrator = core::make_calibrator(config.assessment.test.base);
    serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        calibrator};
    (void)assessor.assess_all(store);  // unmeasured calibration warm-up

    obs::default_tracer().set_enabled(true);  // /traces must have content

    // --- the daemon front-end over the live sources -----------------------
    obs::IntrospectionTree tree;
    net::IntrospectionSources sources;
    sources.registry = &obs::default_registry();
    sources.tracer = &obs::default_tracer();
    sources.store = &store;
    sources.assessor = &assessor;
    sources.calibrator = calibrator;
    net::register_introspection(tree, sources);
    net::HttpServer server{{}, net::make_http_handler(tree)};
    server.start();
    const std::uint16_t port = server.port();

    // --- background ingest for the whole run ------------------------------
    std::atomic<bool> run_ingest{true};
    std::thread ingest([&] {
        stats::Rng rng{0x1497e57ULL};
        std::size_t tick = 0;
        while (run_ingest.load(std::memory_order_acquire)) {
            const auto id = static_cast<repsys::EntityId>(
                1 + (tick % servers));
            const repsys::Feedback feedback{
                static_cast<repsys::Timestamp>(history + 1 + tick / servers),
                id,
                static_cast<repsys::EntityId>(5000 + rng.uniform_int(std::uint64_t{97})),
                rng.bernoulli(0.9) ? repsys::Rating::kPositive
                                   : repsys::Rating::kNegative};
            store.submit(feedback);
            assessor.observe(feedback);
            ++tick;
            if (tick % 64 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds{200});
            }
        }
    });

    // --- scraper thread, gated per segment --------------------------------
    const std::vector<std::string> targets{
        "/metrics", "/servers?limit=32", "/metrics.json", "/traces?n=64",
        "/store"};
    std::atomic<bool> scrape_active{false};
    std::atomic<bool> scrape_shutdown{false};
    ScraperStats scraper_stats;
    bool metrics_body_ok = false;
    std::thread scraper([&] {
        std::size_t next = 0;
        while (!scrape_shutdown.load(std::memory_order_acquire)) {
            if (!scrape_active.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::microseconds{100});
                continue;
            }
            const std::string& target = targets[next++ % targets.size()];
            const auto result = net::http_get("127.0.0.1", port, target);
            if (!result || result->status != 200 || result->body.empty()) {
                ++scraper_stats.failures;
                continue;
            }
            if (target == "/metrics" &&
                result->body.find("hpr_serving_batches_total") !=
                    std::string::npos) {
                metrics_body_ok = true;
            }
            ++scraper_stats.scrapes;
            scraper_stats.bytes += result->body.size();
        }
    });

    // --- alternating measurement segments ---------------------------------
    std::vector<repsys::EntityId> sample;
    for (std::size_t i = 0; i < sample_size; ++i) {
        sample.push_back(static_cast<repsys::EntityId>(
            1 + (i * 7919) % servers));
    }
    std::vector<double> baseline_lat, scrape_lat;
    for (std::size_t segment = 0; segment < 2 * segments; ++segment) {
        const bool scraping = segment % 2 == 1;
        scrape_active.store(scraping, std::memory_order_release);
        if (scraping) {
            // Let the scraper actually start before timing.
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
        }
        auto& lane = scraping ? scrape_lat : baseline_lat;
        for (std::size_t call = 0; call < calls_per_segment; ++call) {
            const obs::Stopwatch watch;
            const auto results = assessor.assess(store, sample);
            lane.push_back(watch.seconds());
            if (results.size() != sample.size()) {
                std::fprintf(stderr, "FAIL: short assess result\n");
                return 1;
            }
        }
        scrape_active.store(false, std::memory_order_release);
    }

    scrape_shutdown.store(true, std::memory_order_release);
    scraper.join();
    run_ingest.store(false, std::memory_order_release);
    ingest.join();
    server.stop();

    // --- self-checks ------------------------------------------------------
    bool ok = true;
    if (scraper_stats.scrapes == 0) {
        std::fprintf(stderr, "FAIL: scrape lane completed zero scrapes\n");
        ok = false;
    }
    if (scraper_stats.failures != 0) {
        std::fprintf(stderr, "FAIL: %llu scrapes failed (non-200 or empty)\n",
                     static_cast<unsigned long long>(scraper_stats.failures));
        ok = false;
    }
    if (!metrics_body_ok) {
        std::fprintf(stderr,
                     "FAIL: /metrics never contained hpr_serving_batches_total\n");
        ok = false;
    }

    const double p99_base = p99_us(baseline_lat);
    const double p99_scrape = p99_us(scrape_lat);
    const double ratio = p99_base > 0.0 ? p99_scrape / p99_base : 0.0;
    const double budget = 1.25;
    const unsigned hw = std::thread::hardware_concurrency();
    const bool enforce = !smoke && hw >= 8;

    std::printf("\nassess p99: baseline %.1fus, under scrape %.1fus "
                "(ratio %.3f, budget %.2fx %s on %u hardware threads)\n",
                p99_base, p99_scrape, ratio, budget,
                enforce ? "ENFORCED" : "report-only", hw);
    std::printf("scraper: %llu scrapes, %llu bytes, %llu failures; "
                "server counters: %llu responses, %llu rejected, "
                "%llu malformed\n",
                static_cast<unsigned long long>(scraper_stats.scrapes),
                static_cast<unsigned long long>(scraper_stats.bytes),
                static_cast<unsigned long long>(scraper_stats.failures),
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(server.rejected_connections()),
                static_cast<unsigned long long>(server.malformed_requests()));
    if (enforce && ratio > budget) {
        std::fprintf(stderr,
                     "FAIL: scrape interference %.3fx exceeds the %.2fx budget\n",
                     ratio, budget);
        ok = false;
    }

    if (std::FILE* out = std::fopen(out_path, "w")) {
        std::fprintf(
            out,
            "{\n"
            "  \"bench\": \"introspection_daemon\",\n"
            "  \"smoke\": %s,\n"
            "  \"hardware_threads\": %u,\n"
            "  \"servers\": %zu,\n"
            "  \"history\": %zu,\n"
            "  \"segments_per_lane\": %zu,\n"
            "  \"assess_calls_per_segment\": %zu,\n"
            "  \"sample_size\": %zu,\n"
            "  \"latency\": {\n"
            "    \"assess_p99_baseline_us\": %.1f,\n"
            "    \"assess_p99_scraping_us\": %.1f,\n"
            "    \"interference_ratio\": %.3f,\n"
            "    \"ratio_budget\": %.2f,\n"
            "    \"budget_enforced\": %s\n"
            "  },\n"
            "  \"scraper\": {\n"
            "    \"scrapes\": %llu,\n"
            "    \"bytes\": %llu,\n"
            "    \"failures\": %llu,\n"
            "    \"responses_served\": %llu,\n"
            "    \"rejected_connections\": %llu,\n"
            "    \"malformed_requests\": %llu\n"
            "  },\n"
            "  \"all_budgets_met\": %s\n"
            "}\n",
            smoke ? "true" : "false", hw, servers, history, segments,
            calls_per_segment, sample_size, p99_base, p99_scrape, ratio,
            budget, enforce ? "true" : "false",
            static_cast<unsigned long long>(scraper_stats.scrapes),
            static_cast<unsigned long long>(scraper_stats.bytes),
            static_cast<unsigned long long>(scraper_stats.failures),
            static_cast<unsigned long long>(server.requests_served()),
            static_cast<unsigned long long>(server.rejected_connections()),
            static_cast<unsigned long long>(server.malformed_requests()),
            ok && enforce ? "true" : "false");
        std::fclose(out);
        std::printf("wrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
        ok = false;
    }

    bench::print_metrics();
    return ok ? 0 : 1;
}
