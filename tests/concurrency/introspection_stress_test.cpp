// Scrape-during-ingest stress for the introspection daemon, meant to run
// under -DHPR_SANITIZE=thread and address as well as plain builds.  Eight
// threads hammer the live tree — ingest writers, an assessment caller,
// direct tree readers, and real HTTP scrapers through the epoll server —
// while the pages they read are rendered from the same lock-striped
// state the writers mutate.  Sanitizers validate the synchronization;
// the assertions validate that every scrape kept answering.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/endpoints.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr::net {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

repsys::Feedback fb(repsys::Timestamp t, repsys::EntityId server, bool good) {
    return repsys::Feedback{t, server, static_cast<repsys::EntityId>(900 + t % 7),
                            good ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative};
}

// 2 ingest writers + 1 assessment caller + 2 direct tree readers +
// 3 HTTP scrapers = 8 threads over one shared daemon state.
TEST(IntrospectionStress, ScrapersStayConsistentDuringIngest) {
    constexpr std::size_t kServers = 24;
    constexpr std::size_t kPerServer = 300;

    repsys::FeedbackStore store{8};
    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    config.threads = 2;
    config.screener_horizon = 8;
    serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        shared_cal()};
    obs::Tracer tracer{{.ring_capacity = 128, .enabled = true}};
    tracer.ring().push([] {
        obs::DecisionRecord record;
        record.trace_id = 1;
        record.source = "online_screener";
        record.server = 1;
        record.verdict = "clear";
        return record;
    }());

    obs::IntrospectionTree tree;
    IntrospectionSources sources;
    sources.registry = &obs::default_registry();
    sources.tracer = &tracer;
    sources.store = &store;
    sources.assessor = &assessor;
    sources.calibrator = shared_cal();
    register_introspection(tree, sources);

    HttpServer server{{}, make_http_handler(tree)};
    server.start();
    const std::uint16_t port = server.port();

    // Seed every server so the assessment caller can always resolve its
    // whole batch; the writers continue each history past the seed.
    constexpr std::size_t kSeed = 10;
    std::vector<repsys::EntityId> all_servers;
    {
        std::vector<repsys::Feedback> seed;
        for (repsys::EntityId s = 1; s <= kServers; ++s) {
            all_servers.push_back(s);
            for (std::size_t i = 0; i < kSeed; ++i) {
                seed.push_back(
                    fb(static_cast<repsys::Timestamp>(i + 1), s, true));
            }
        }
        store.ingest_batch(seed);
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::atomic<std::uint64_t> scrape_failures{0};
    std::atomic<std::uint64_t> tree_reads{0};
    std::vector<std::thread> pool;

    // 2 ingest writers over disjoint servers: store + screener bank.
    for (std::size_t t = 0; t < 2; ++t) {
        pool.emplace_back([&, t] {
            for (repsys::EntityId s = 1; s <= kServers; ++s) {
                if (s % 2 != t) continue;
                stats::Rng rng{0x1157ULL + s};
                for (std::size_t i = 0; i < kPerServer; ++i) {
                    const auto feedback = fb(
                        static_cast<repsys::Timestamp>(kSeed + i + 1), s,
                        rng.bernoulli(0.93));
                    store.submit(feedback);
                    assessor.observe(feedback);
                }
            }
        });
    }
    // 1 assessment caller racing the writers.
    pool.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto results = assessor.assess(store, all_servers);
            EXPECT_EQ(results.size(), all_servers.size());
        }
    });
    // 2 direct tree readers (the transport-free path).
    for (std::size_t t = 0; t < 2; ++t) {
        pool.emplace_back([&] {
            const char* const targets[] = {"/servers", "/store", "/traces?n=8",
                                           "/metrics", "/servers/1"};
            std::size_t i = 0;
            do {  // at least one read each, even if the writers finish first
                const auto page = tree.get(targets[i++ % 5]);
                EXPECT_TRUE(page.status == 200 || page.status == 404);
                tree_reads.fetch_add(1, std::memory_order_relaxed);
            } while (!stop.load(std::memory_order_relaxed));
        });
    }
    // 3 HTTP scrapers through the real epoll server.
    for (std::size_t t = 0; t < 3; ++t) {
        pool.emplace_back([&, t] {
            const char* const targets[] = {"/metrics", "/servers?limit=8",
                                           "/metrics.json", "/healthz",
                                           "/traces?n=4", "/store",
                                           "/calibration"};
            std::size_t i = t;
            do {  // at least one scrape each, even if the writers finish first
                const auto result =
                    http_get("127.0.0.1", port, targets[i++ % 7], 5.0);
                if (!result || result->status != 200 || result->body.empty()) {
                    scrape_failures.fetch_add(1, std::memory_order_relaxed);
                } else {
                    scrapes.fetch_add(1, std::memory_order_relaxed);
                }
            } while (!stop.load(std::memory_order_relaxed));
        });
    }

    // Writers are bounded; join them, then release the loops.
    pool[0].join();
    pool[1].join();
    stop.store(true, std::memory_order_relaxed);
    for (std::size_t t = 2; t < pool.size(); ++t) pool[t].join();
    // The scraped /metrics page carries the serving counters.
    const auto metrics = http_get("127.0.0.1", port, "/metrics", 5.0);
    server.stop();
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    EXPECT_NE(metrics->body.find("hpr_serving_batches_total"), std::string::npos);

    EXPECT_EQ(store.server_count(), kServers);
    EXPECT_EQ(store.size(), kServers * (kSeed + kPerServer));
    EXPECT_EQ(assessor.tracked_streams(), kServers);
    EXPECT_GT(scrapes.load(), 0u);
    EXPECT_GT(tree_reads.load(), 0u);
    EXPECT_EQ(scrape_failures.load(), 0u);

    // A final quiescent scrape agrees with the settled state.
    const auto page = tree.get("/servers");
    EXPECT_NE(page.body.find("# servers=" + std::to_string(kServers)),
              std::string::npos);
}

}  // namespace
}  // namespace hpr::net
