// The introspection endpoint wiring (net/endpoints.h): every page the
// daemon serves, rendered straight off live subsystem state — plus the
// byte-equality contract between /metrics and obs::to_prometheus, and
// the HTTP adapter that carries tree pages over the wire.

#include "net/endpoints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/export.h"
#include "obs/flightrecorder.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "stats/rng.h"

namespace hpr::net {
namespace {

std::shared_ptr<stats::Calibrator> shared_cal() {
    static auto cal = core::make_calibrator(core::BehaviorTestConfig{});
    return cal;
}

/// A daemon-shaped fixture: a populated store, an assessor
/// that has observed every feedback, a tracer with ring records, and a
/// registry — everything IntrospectionSources can point at.
struct Fixture {
    repsys::FeedbackStore store{4};
    serve::BatchAssessor assessor;
    obs::Registry registry;
    obs::Tracer tracer;
    obs::IntrospectionTree tree;

    Fixture()
        : assessor{[] {
                       serve::BatchAssessorConfig config;
                       config.threads = 1;
                       return config;
                   }(),
                   std::shared_ptr<const repsys::TrustFunction>{
                       repsys::make_trust_function("beta")},
                   shared_cal()} {
        std::vector<repsys::Feedback> batch;
        for (const repsys::EntityId server : {7u, 11u}) {
            stats::Rng rng{1000 + server};
            for (std::size_t i = 0; i < 120; ++i) {
                batch.push_back(repsys::Feedback{
                    static_cast<repsys::Timestamp>(i + 1), server,
                    static_cast<repsys::EntityId>(900 + i % 5),
                    rng.bernoulli(0.95) ? repsys::Rating::kPositive
                                        : repsys::Rating::kNegative});
            }
        }
        store.ingest_batch(batch);
        for (const repsys::Feedback& feedback : batch) {
            assessor.observe(feedback);
        }
        IntrospectionSources sources;
        sources.registry = &registry;
        sources.tracer = &tracer;
        sources.store = &store;
        sources.assessor = &assessor;
        sources.calibrator = shared_cal();
        register_introspection(tree, sources);
    }
};

obs::DecisionRecord record_for(std::uint64_t trace_id, std::uint64_t server) {
    obs::DecisionRecord record;
    record.trace_id = trace_id;
    record.source = "online_screener";
    record.server = server;
    record.verdict = "clear";
    return record;
}

TEST(Endpoints, HealthzAndRootListing) {
    Fixture fixture;
    const auto& tree = fixture.tree;
    const auto health = tree.get("/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    const auto root = tree.get("/");
    EXPECT_EQ(root.status, 200);
    for (const char* path : {"/healthz", "/metrics", "/metrics.json",
                             "/traces", "/store", "/servers", "/calibration"}) {
        EXPECT_NE(root.body.find(path), std::string::npos) << path;
    }
}

TEST(Endpoints, MetricsPageByteEqualsThePrometheusExport) {
    Fixture fixture;
    fixture.registry.counter("endpoint_test_total", "h").increment(42);
    const auto& tree = fixture.tree;

    const auto page = tree.get("/metrics");
    EXPECT_EQ(page.status, 200);
    EXPECT_EQ(page.content_type, "text/plain; version=0.0.4; charset=utf-8");
    // The handler publishes uptime then renders; nothing mutates the
    // quiescent registry between renders, so a second render is
    // byte-identical.
    EXPECT_EQ(page.body, obs::to_prometheus(fixture.registry));
    EXPECT_NE(page.body.find("endpoint_test_total 42"), std::string::npos);
    EXPECT_NE(page.body.find("hpr_uptime_seconds"), std::string::npos);
}

TEST(Endpoints, MetricsJsonIsServed) {
    Fixture fixture;
    fixture.registry.counter("endpoint_json_total", "h").increment(7);
    const auto& tree = fixture.tree;
    const auto page = tree.get("/metrics.json");
    EXPECT_EQ(page.status, 200);
    EXPECT_EQ(page.content_type, "application/json");
    EXPECT_EQ(page.body.front(), '{');
    EXPECT_NE(page.body.find("\"endpoint_json_total\""), std::string::npos);
}

TEST(Endpoints, TracesFilterByCountAndServer) {
    Fixture fixture;
    for (std::uint64_t i = 1; i <= 5; ++i) {
        fixture.tracer.ring().push(record_for(i, i % 2 == 0 ? 7 : 11));
    }
    const auto& tree = fixture.tree;

    const auto all = tree.get("/traces");
    EXPECT_EQ(all.status, 200);
    EXPECT_EQ(all.content_type, "application/x-ndjson");
    std::size_t lines = 0;
    std::istringstream stream{all.body};
    for (std::string line; std::getline(stream, line);) {
        obs::DecisionRecord parsed;
        ASSERT_TRUE(obs::from_jsonl(line, parsed)) << line;
        ++lines;
    }
    EXPECT_EQ(lines, 5u);

    // ?n keeps the NEWEST records.
    const auto newest = tree.get("/traces?n=2");
    EXPECT_NE(newest.body.find("\"trace_id\":4"), std::string::npos);
    EXPECT_NE(newest.body.find("\"trace_id\":5"), std::string::npos);
    EXPECT_EQ(newest.body.find("\"trace_id\":3"), std::string::npos);

    const auto filtered = tree.get("/traces?server=7");
    EXPECT_NE(filtered.body.find("\"server\":7"), std::string::npos);
    EXPECT_EQ(filtered.body.find("\"server\":11"), std::string::npos);

    // The snapshot is non-destructive: scraping left the ring intact.
    EXPECT_EQ(fixture.tracer.ring().size(), 5u);

    EXPECT_EQ(tree.get("/traces?n=bogus").status, 400);
    EXPECT_EQ(tree.get("/traces?server=-1").status, 400);
}

TEST(Endpoints, StorePageSumsShardOccupancy) {
    Fixture fixture;
    const auto page = fixture.tree.get("/store");
    EXPECT_EQ(page.status, 200);
    EXPECT_NE(page.body.find("# shards=4 servers=2 feedbacks=240"),
              std::string::npos);
    EXPECT_NE(page.body.find("shard=0 "), std::string::npos);
    EXPECT_NE(page.body.find("shard=3 "), std::string::npos);
}

TEST(Endpoints, ServersIndexListsLiveScreenerState) {
    Fixture fixture;
    const auto& tree = fixture.tree;
    const auto index = tree.get("/servers");
    EXPECT_EQ(index.status, 200);
    EXPECT_NE(index.body.find("# servers=2 feedbacks=240 streams=2"),
              std::string::npos);
    EXPECT_NE(index.body.find("7 history=120 screener="), std::string::npos);
    EXPECT_NE(index.body.find("11 history=120 screener="), std::string::npos);

    const auto limited = tree.get("/servers?limit=1");
    // Header plus exactly one row.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(limited.body.begin(), limited.body.end(), '\n')),
              2u);
    EXPECT_EQ(tree.get("/servers?limit=x").status, 400);
}

TEST(Endpoints, ServerDetailPageAndUnknownIds) {
    Fixture fixture;
    const auto& tree = fixture.tree;
    const auto detail = tree.get("/servers/7");
    EXPECT_EQ(detail.status, 200);
    EXPECT_NE(detail.body.find("server 7\n"), std::string::npos);
    EXPECT_NE(detail.body.find("history_length 120\n"), std::string::npos);
    EXPECT_NE(detail.body.find("store_shard "), std::string::npos);
    EXPECT_NE(detail.body.find("screener_state "), std::string::npos);
    EXPECT_NE(detail.body.find("transactions 120\n"), std::string::npos);
    EXPECT_NE(detail.body.find("p_hat "), std::string::npos);

    EXPECT_EQ(tree.get("/servers/9999").status, 404);
    EXPECT_EQ(tree.get("/servers/notanumber").status, 404);
    // 2^32 + 7 must not wrap onto server 7.
    EXPECT_EQ(tree.get("/servers/4294967303").status, 404);
}

TEST(Endpoints, IntegerParametersAreDigitsOnly) {
    // The ingest line protocol and /assess already reject a sign; every
    // integer query and the /servers/<id> path must too, so `+7` is
    // neither a second spelling of server 7 nor a valid count.
    Fixture fixture;
    obs::FlightRecorder recorder{{}, fixture.registry};
    (void)recorder.sample_now();
    obs::IntrospectionTree timeseries;
    IntrospectionSources sources;
    sources.recorder = &recorder;
    register_introspection(timeseries, sources);

    for (const char* target :
         {"/traces?n=+1", "/traces?server=+7", "/servers?limit=+1"}) {
        EXPECT_EQ(fixture.tree.get(target).status, 400) << target;
    }
    EXPECT_EQ(timeseries.get("/timeseries?n=+1").status, 400);
    EXPECT_EQ(timeseries.get("/timeseries?n=1").status, 200);
    EXPECT_EQ(fixture.tree.get("/servers/+7").status, 404);
}

TEST(Endpoints, CalibrationPageReportsCacheStatistics) {
    Fixture fixture;
    const auto page = fixture.tree.get("/calibration");
    EXPECT_EQ(page.status, 200);
    for (const char* key :
         {"hits ", "misses ", "single_flight_joins ", "in_flight ",
          "cache_entries "}) {
        EXPECT_NE(page.body.find(key), std::string::npos) << key;
    }
}

TEST(Endpoints, AbsentSourcesSkipTheirEndpoints) {
    obs::Registry registry;
    obs::IntrospectionTree tree;
    IntrospectionSources sources;
    sources.registry = &registry;  // everything else left null
    register_introspection(tree, sources);

    EXPECT_EQ(tree.get("/metrics").status, 200);
    EXPECT_EQ(tree.get("/traces").status, 404);
    EXPECT_EQ(tree.get("/store").status, 404);
    EXPECT_EQ(tree.get("/servers").status, 404);
    EXPECT_EQ(tree.get("/calibration").status, 404);
}

TEST(Endpoints, HttpHandlerCarriesPagesOverTheWire) {
    Fixture fixture;
    const auto& tree = fixture.tree;
    HttpServer server{{}, make_http_handler(tree)};
    server.start();

    const auto health = http_get("127.0.0.1", server.port(), "/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);
    EXPECT_EQ(health->body, "ok\n");

    const auto metrics = http_get("127.0.0.1", server.port(), "/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->status, 200);
    EXPECT_EQ(*metrics->header("Content-Type"),
              "text/plain; version=0.0.4; charset=utf-8");

    // Page status codes pass through the adapter, queries included.
    const auto missing = http_get("127.0.0.1", server.port(), "/nope");
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, 404);
    const auto bad = http_get("127.0.0.1", server.port(), "/traces?n=x");
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->status, 400);
    const auto detail = http_get("127.0.0.1", server.port(), "/servers/7");
    ASSERT_TRUE(detail.has_value());
    EXPECT_EQ(detail->status, 200);
    EXPECT_NE(detail->body.find("server 7\n"), std::string::npos);
}

}  // namespace
}  // namespace hpr::net
