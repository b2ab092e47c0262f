// The write half of the serving layer (net/ingest.h): gate admission
// arithmetic (watermarks, overflow, release accounting), the strict
// body parser, the /ingest and /assess handlers against a live store +
// screener bank, and full HTTP round trips through the epoll front-end
// including 429 shedding with Retry-After.

#include "net/ingest.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/endpoints.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/introspection.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/rng.h"

namespace hpr::net {
namespace {

serve::BatchAssessor make_assessor() {
    serve::BatchAssessorConfig config;
    config.threads = 2;
    return serve::BatchAssessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")}};
}

// ---------------------------------------------------------------------------
// IngestGate

TEST(IngestGate, EstimateIsWorstCaseRecordsPerByte) {
    // "1 1 1\n" is 6 bytes: a 60-byte body could carry 10 such records.
    EXPECT_EQ(IngestGate::estimate_records(0), 1u);
    EXPECT_EQ(IngestGate::estimate_records(5), 1u);
    EXPECT_EQ(IngestGate::estimate_records(6), 2u);
    EXPECT_EQ(IngestGate::estimate_records(60), 11u);
}

TEST(IngestGate, AdmitsUntilTheBudgetAndReleasesExactly) {
    IngestGate gate{{.pending_budget = 100,
                     .soft_watermark = 1.0,
                     .hard_watermark = 1.0}};
    EXPECT_TRUE(gate.try_admit(60));
    EXPECT_EQ(gate.pending(), 60u);
    EXPECT_TRUE(gate.try_admit(40));
    EXPECT_EQ(gate.pending(), 100u);
    EXPECT_FALSE(gate.try_admit(1));  // full
    EXPECT_EQ(gate.shed_overflow(), 1u);
    gate.release(40);
    EXPECT_EQ(gate.pending(), 60u);
    EXPECT_TRUE(gate.try_admit(1));
    gate.release(61);
    gate.release(0);
    EXPECT_EQ(gate.pending(), 0u);
    EXPECT_EQ(gate.admitted(), 3u);
    EXPECT_EQ(gate.admitted_records(), 101u);
    EXPECT_EQ(gate.released_records(), 101u);
}

TEST(IngestGate, SoftWatermarkShedsOnlyLargeRequests) {
    IngestGate gate{{.pending_budget = 1000,
                     .soft_watermark = 0.5,
                     .hard_watermark = 0.9,
                     .large_request_records = 10}};
    ASSERT_TRUE(gate.try_admit(500));  // lands exactly at the soft mark
    // In the soft zone: small passes, large is shed.
    EXPECT_TRUE(gate.try_admit(10));
    EXPECT_FALSE(gate.try_admit(11));
    EXPECT_EQ(gate.shed_soft(), 1u);
    EXPECT_EQ(gate.pending(), 510u);
}

TEST(IngestGate, HardWatermarkShedsEverything) {
    IngestGate gate{{.pending_budget = 1000,
                     .soft_watermark = 0.5,
                     .hard_watermark = 0.9,
                     .large_request_records = 10}};
    ASSERT_TRUE(gate.try_admit(500));
    ASSERT_TRUE(gate.try_admit(10));  // soft zone, small: admitted
    ASSERT_TRUE(gate.try_admit(10));
    // ... climb into the hard zone with admissible small requests.
    while (gate.pending() < gate.hard_records()) {
        ASSERT_TRUE(gate.try_admit(10)) << gate.pending();
    }
    EXPECT_FALSE(gate.try_admit(1));  // even a tiny request is shed now
    EXPECT_GE(gate.shed_hard(), 1u);
}

TEST(IngestGate, OverflowIsShedEvenBelowTheWatermarks) {
    IngestGate gate{{.pending_budget = 100,
                     .soft_watermark = 1.0,
                     .hard_watermark = 1.0}};
    EXPECT_FALSE(gate.try_admit(101));  // empty gate, request bigger than budget
    EXPECT_EQ(gate.shed_overflow(), 1u);
    EXPECT_EQ(gate.pending(), 0u);
}

TEST(IngestGate, DegenerateConfigIsClamped) {
    IngestGate gate{{.pending_budget = 0,
                     .soft_watermark = 2.0,
                     .hard_watermark = -1.0,
                     .retry_after_seconds = 0}};
    EXPECT_EQ(gate.config().pending_budget, 1u);
    EXPECT_LE(gate.config().soft_watermark, 1.0);
    EXPECT_GE(gate.config().hard_watermark, gate.config().soft_watermark);
    EXPECT_GE(gate.retry_after_seconds(), 1);
}

// ---------------------------------------------------------------------------
// parse_ingest_body

TEST(IngestParser, ParsesWellFormedBatches) {
    std::vector<repsys::Feedback> feedbacks;
    std::string error;
    ASSERT_TRUE(
        parse_ingest_body("7 100 1\n7 101 0\n8 -5 2\n", feedbacks, error))
        << error;
    ASSERT_EQ(feedbacks.size(), 3u);
    EXPECT_EQ(feedbacks[0].server, 7u);
    EXPECT_EQ(feedbacks[0].time, 100);
    EXPECT_EQ(feedbacks[0].rating, repsys::Rating::kPositive);
    EXPECT_EQ(feedbacks[1].rating, repsys::Rating::kNegative);
    EXPECT_EQ(feedbacks[2].server, 8u);
    EXPECT_EQ(feedbacks[2].time, -5);
    EXPECT_EQ(feedbacks[2].rating, repsys::Rating::kNeutral);
    EXPECT_EQ(feedbacks[2].client, 0u);  // the wire carries no issuer
}

TEST(IngestParser, AcceptsAFinalUnterminatedLine) {
    std::vector<repsys::Feedback> feedbacks;
    std::string error;
    ASSERT_TRUE(parse_ingest_body("7 1 1\n7 2 1", feedbacks, error)) << error;
    EXPECT_EQ(feedbacks.size(), 2u);
}

TEST(IngestParser, RejectsEveryMalformationWithItsLineNumber) {
    const struct {
        const char* body;
        std::size_t line;
    } cases[] = {
        {"", 0},                      // empty batch (no line to blame)
        {"7 1 1\n\n7 2 1\n", 2},      // blank line
        {"7 1 1\r\n", 1},             // CRLF line ending
        {"7 1\n", 1},                 // too few fields
        {"7 1 1 9\n", 1},             // too many fields
        {"x 1 1\n", 1},               // non-numeric server
        {"7 y 1\n", 1},               // non-numeric timestamp
        {"7 1 z\n", 1},               // non-numeric outcome
        {"7 1 3\n", 1},               // outcome out of range
        {"-7 1 1\n", 1},              // negative server id
        {"4294967296 1 1\n", 1},      // server id beyond uint32
        {"7 1 1\n7 2 1\n7 3 7\n", 3}, // failure deep in the batch
    };
    for (const auto& test_case : cases) {
        std::vector<repsys::Feedback> feedbacks;
        std::string error;
        EXPECT_FALSE(parse_ingest_body(test_case.body, feedbacks, error))
            << '"' << test_case.body << '"';
        if (test_case.line != 0) {
            EXPECT_NE(
                error.find("line " + std::to_string(test_case.line) + ":"),
                std::string::npos)
                << '"' << test_case.body << "\" -> " << error;
        }
    }
}

// ---------------------------------------------------------------------------
// IngestService handlers (no HTTP server involved)

TEST(IngestService, AcceptedBatchLandsInStoreAndScreenerBank) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor};

    HttpRequest request;
    request.method = "POST";
    request.path = "/ingest";
    request.body = "42 1 1\n42 2 1\n42 3 0\n";
    const HttpResponse response = service.handle_ingest(request);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "accepted=3\n");
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.history_length(42).value_or(0), 3u);
    EXPECT_EQ(assessor.tracked_streams(), 1u);  // observe() ran per record
    EXPECT_EQ(service.accepted_requests(), 1u);
    EXPECT_EQ(service.accepted_records(), 3u);
}

TEST(IngestService, MalformedLineRejects400AndMutatesNothing) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor};

    HttpRequest request;
    request.method = "POST";
    request.body = "42 1 1\n42 2 bogus\n";
    const HttpResponse response = service.handle_ingest(request);
    EXPECT_EQ(response.status, 400);
    EXPECT_NE(response.body.find("line 2"), std::string::npos);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(assessor.tracked_streams(), 0u);
    EXPECT_EQ(service.rejected_requests(), 1u);
}

TEST(IngestService, OutOfOrderTimestampRejectsTheWholeBatchWithItsLine) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor};

    // Pre-existing history for server 9 up to t=100.
    store.submit(repsys::Feedback{100, 9, 1, repsys::Rating::kPositive});

    HttpRequest request;
    request.method = "POST";
    // Line 1 targets another server (valid), line 2 regresses server 9.
    request.body = "8 1 1\n9 50 1\n";
    const HttpResponse response = service.handle_ingest(request);
    EXPECT_EQ(response.status, 400);
    EXPECT_NE(response.body.find("line 2"), std::string::npos);
    // All-or-nothing: the valid line 1 must NOT have landed.
    EXPECT_FALSE(store.contains(8));
    EXPECT_EQ(store.size(), 1u);
}

TEST(IngestService, RecordCapDraws413) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor, {.max_records_per_request = 2}};

    HttpRequest request;
    request.method = "POST";
    request.body = "1 1 1\n1 2 1\n1 3 1\n";
    const HttpResponse response = service.handle_ingest(request);
    EXPECT_EQ(response.status, 413);
    EXPECT_EQ(store.size(), 0u);
}

TEST(IngestService, AssessPageAnswersVerdictsAndErrors) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor};

    // A consistent history long enough for a full assessment.
    std::string body;
    for (int t = 1; t <= 200; ++t) {
        body += "5 " + std::to_string(t) + " " + (t % 10 == 0 ? "0" : "1") +
                "\n";
    }
    HttpRequest request;
    request.method = "POST";
    request.body = body;
    ASSERT_EQ(service.handle_ingest(request).status, 200);

    obs::IntrospectionRequest ok{"/assess", "server=5"};
    const obs::IntrospectionPage page = service.assess_page(ok);
    EXPECT_EQ(page.status, 200);
    EXPECT_NE(page.body.find("server 5"), std::string::npos);
    EXPECT_NE(page.body.find("verdict "), std::string::npos);
    EXPECT_NE(page.body.find("history_length 200"), std::string::npos);

    obs::IntrospectionRequest missing{"/assess", ""};
    EXPECT_EQ(service.assess_page(missing).status, 400);
    obs::IntrospectionRequest garbage{"/assess", "server=banana"};
    EXPECT_EQ(service.assess_page(garbage).status, 400);
    obs::IntrospectionRequest unknown{"/assess", "server=777"};
    EXPECT_EQ(service.assess_page(unknown).status, 404);
}

// The page is served from one assess_served() call; its body must be
// the one the separate reads (assess, history_length, stream_state)
// render, byte for byte, in every stream state.
TEST(IngestService, AssessPageBodyEqualsSeparateReads) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestService service{store, assessor};
    stats::Rng rng{0xa55e55ULL};
    std::string body;
    for (int t = 1; t <= 800; ++t) {  // server 1: honest, p = 0.9
        body += "1 " + std::to_string(t) + (rng.bernoulli(0.9) ? " 1\n" : " 0\n");
    }
    for (int t = 1; t <= 400; ++t) {  // server 2: 300 good, then 100 bad
        body += "2 " + std::to_string(t) + (t <= 300 ? " 1\n" : " 0\n");
    }
    for (int t = 1; t <= 5; ++t) {  // server 3: too short to judge
        body += "3 " + std::to_string(t) + " 1\n";
    }
    HttpRequest request;
    request.method = "POST";
    request.body = body;
    ASSERT_EQ(service.handle_ingest(request).status, 200);
    ASSERT_EQ(assessor.stream_state(1), core::StreamState::kClear);
    ASSERT_EQ(assessor.stream_state(2), core::StreamState::kSuspicious);
    ASSERT_EQ(assessor.stream_state(3), core::StreamState::kInsufficient);

    for (const repsys::EntityId id : {1u, 2u, 3u}) {
        const core::Assessment assessment =
            assessor.assess(store, {id}).front().assessment;
        const std::string expected =
            "server " + std::to_string(id) + "\nverdict " +
            core::to_string(assessment.verdict) + "\ntrust " +
            (assessment.trust ? std::to_string(*assessment.trust) : "none") +
            "\nhistory_length " +
            std::to_string(store.history_length(id).value_or(0)) +
            "\nstream_state " + core::to_string(assessor.stream_state(id)) +
            "\n";
        const obs::IntrospectionPage page = service.assess_page(
            obs::IntrospectionRequest{"/assess", "server=" + std::to_string(id)});
        EXPECT_EQ(page.status, 200);
        EXPECT_EQ(page.body, expected) << "server " << id;
    }
}

TEST(IngestService, StatsPageReportsGateAndServiceCounters) {
    repsys::FeedbackStore store;
    auto assessor = make_assessor();
    IngestServiceConfig config;
    config.gate.pending_budget = 512;
    IngestService service{store, assessor, config};

    HttpRequest request;
    request.method = "POST";
    request.body = "3 1 1\n";
    ASSERT_EQ(service.handle_ingest(request).status, 200);

    obs::IntrospectionRequest stats_request{"/ingest/stats", ""};
    const obs::IntrospectionPage page = service.stats_page(stats_request);
    EXPECT_EQ(page.status, 200);
    EXPECT_NE(page.body.find("budget_records 512"), std::string::npos);
    EXPECT_NE(page.body.find("accepted_requests 1"), std::string::npos);
    EXPECT_NE(page.body.find("accepted_records 1"), std::string::npos);
    EXPECT_NE(page.body.find("pending_records 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Full HTTP round trips (server + gate + service)

struct WiredDaemon {
    repsys::FeedbackStore store;
    serve::BatchAssessor assessor = make_assessor();
    obs::IntrospectionTree tree;
    std::unique_ptr<IngestService> service;
    std::unique_ptr<HttpServer> server;

    explicit WiredDaemon(IngestServiceConfig config = {}) {
        service = std::make_unique<IngestService>(store, assessor, config);
        net::IntrospectionSources sources;
        sources.store = &store;
        sources.assessor = &assessor;
        register_introspection(tree, sources);
        register_ingest(tree, *service);
        HttpServerConfig http;
        http.ingest_gate = &service->gate();
        server = std::make_unique<HttpServer>(
            http, make_http_handler(tree, service.get()));
        server->start();
    }
    ~WiredDaemon() { server->stop(); }
    [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

TEST(IngestHttp, PostIngestThenAssessRoundTrip) {
    WiredDaemon daemon;
    const auto posted = http_post("127.0.0.1", daemon.port(), "/ingest",
                                  "11 1 1\n11 2 1\n12 1 0\n");
    ASSERT_TRUE(posted.has_value());
    EXPECT_EQ(posted->status, 200);
    EXPECT_EQ(posted->body, "accepted=3\n");

    const auto assessed =
        http_get("127.0.0.1", daemon.port(), "/assess?server=11");
    ASSERT_TRUE(assessed.has_value());
    EXPECT_EQ(assessed->status, 200);
    EXPECT_NE(assessed->body.find("history_length 2"), std::string::npos);

    const auto stats = http_get("127.0.0.1", daemon.port(), "/ingest/stats");
    ASSERT_TRUE(stats.has_value());
    EXPECT_NE(stats->body.find("accepted_records 3"), std::string::npos);
    EXPECT_NE(stats->body.find("pending_records 0"), std::string::npos);
}

TEST(IngestHttp, BadBatchOverHttpDraws400WithLineNumber) {
    WiredDaemon daemon;
    const auto posted = http_post("127.0.0.1", daemon.port(), "/ingest",
                                  "11 1 1\nnot a record\n");
    ASSERT_TRUE(posted.has_value());
    EXPECT_EQ(posted->status, 400);
    EXPECT_NE(posted->body.find("line 2"), std::string::npos);
    EXPECT_EQ(daemon.store.size(), 0u);
}

TEST(IngestHttp, PostToUnknownPathDraws404) {
    WiredDaemon daemon;
    const auto posted =
        http_post("127.0.0.1", daemon.port(), "/metrics", "1 1 1\n");
    ASSERT_TRUE(posted.has_value());
    EXPECT_EQ(posted->status, 404);
}

TEST(IngestHttp, BurstPastTheGateBudgetDraws429WithRetryAfter) {
    IngestServiceConfig config;
    config.gate.pending_budget = 64;  // one small request's estimate fits
    config.gate.retry_after_seconds = 3;
    WiredDaemon daemon{config};

    // A body whose estimate (bytes/6+1) clearly exceeds 64 records.
    std::string big;
    for (int t = 1; t <= 200; ++t) {
        big += "21 " + std::to_string(t) + " 1\n";
    }
    const auto shed = http_post("127.0.0.1", daemon.port(), "/ingest", big);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->status, 429);
    ASSERT_TRUE(shed->header("Retry-After").has_value());
    EXPECT_EQ(*shed->header("Retry-After"), "3");
    EXPECT_EQ(daemon.store.size(), 0u);
    EXPECT_EQ(daemon.service->gate().shed_total(), 1u);
    EXPECT_EQ(daemon.server->shed_requests(), 1u);

    // The gate sheds, it does not wedge: a small batch still lands.
    const auto small =
        http_post("127.0.0.1", daemon.port(), "/ingest", "21 1 1\n");
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(small->status, 200);
    EXPECT_EQ(daemon.service->gate().pending(), 0u);
}

TEST(IngestHttp, GateChargeIsReleasedWhenTheClientAbandonsMidBody) {
    IngestServiceConfig config;
    config.gate.pending_budget = 4096;
    WiredDaemon daemon{config};

    {
        // Declare a large body, send a fragment, vanish.
        const auto raw = http_exchange(
            "127.0.0.1", daemon.port(),
            "POST /ingest HTTP/1.1\r\nHost: h\r\nContent-Length: 6000\r\n\r\n"
            "13 1 1\n",
            5.0, /*shutdown_write=*/true);
        ASSERT_TRUE(raw.has_value());
        // Half-close with an incomplete body draws the best-effort 400.
        EXPECT_NE(raw->find("400"), std::string::npos);
    }
    // The admission charge must have been returned: pending is zero and
    // a full-budget request is admissible again.
    for (int i = 0; i < 100 && daemon.service->gate().pending() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    EXPECT_EQ(daemon.service->gate().pending(), 0u);
    EXPECT_EQ(daemon.service->gate().released_records(),
              daemon.service->gate().admitted_records());
}

}  // namespace
}  // namespace hpr::net
