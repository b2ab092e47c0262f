// Ingest-pipeline overload: what does the write path do when clients
// outrun the admission budget?
//
//   build/bench/ingest_pipeline [--smoke] [--out BENCH_9.json]
//
// The deployment shape under test is examples/reputation_server with
// --ingest-budget: feedback batches arrive over POST /ingest, are
// charged against the IngestGate at header-parse time, land all-or-
// nothing in the sharded store, stream into the screener bank, and are
// immediately visible to GET /assess.  The design claims are:
//
//  * a single well-behaved client is never shed — its batches fit the
//    budget and it only ever has one request in flight;
//  * once concurrent clients hold overlapping in-flight bodies (2, 4,
//    8 clients = 2x/4x/8x the single-client admission pressure), the
//    gate sheds the excess with 429 instead of buffering without
//    bound — shed rate grows with the client count while accepted
//    requests keep completing;
//  * conservation: every record acknowledged with 200 is in the store
//    exactly once — overload sheds requests, never halves of them.
//
// Method: per phase (1/2/4/8 clients), each client streams its batches
// in two writes with a small pause between them — the half-received-
// body overlap a real uplink produces — then reads the response; on
// 200 it times a follow-up /assess for one of its servers.  Shed
// requests are counted, not retried.  Self-checks: no malformed
// responses, zero gate charge and released == admitted after
// quiescence, client-side accepted records == store size ==
// service-side accepted counter, and (full runs) the 2-client phase
// must shed.  On hosts with >= 8 hardware threads the full run also
// enforces the single-client latency budgets: accepted-ingest p99 <=
// 200ms, assess p99 <= 50ms; elsewhere they are reported only.
// Results land in BENCH_9.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/endpoints.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/ingest.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"

using namespace hpr;

namespace {

double percentile_us(std::vector<double>& seconds, double q) {
    if (seconds.empty()) return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(seconds.size() - 1));
    return seconds[index] * 1e6;
}

/// POST `body` to /ingest, streaming it in two halves with a pause in
/// between (so concurrent clients genuinely overlap in the server's
/// event loop), then read the full response.  Returns the HTTP status,
/// or -1 on transport failure.
int streaming_post(std::uint16_t port, const std::string& body,
                   int mid_body_pause_ms) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
        ::close(fd);
        return -1;
    }
    timeval timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    const std::string head =
        "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n";
    const std::string first = head + body.substr(0, body.size() / 2);
    const std::string second = body.substr(body.size() / 2);
    const auto send_all = [fd](const std::string& bytes) {
        std::size_t written = 0;
        while (written < bytes.size()) {
            const ssize_t sent = ::send(fd, bytes.data() + written,
                                        bytes.size() - written, MSG_NOSIGNAL);
            if (sent <= 0) return false;
            written += static_cast<std::size_t>(sent);
        }
        return true;
    };
    bool sent_ok = send_all(first);
    if (sent_ok) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds{mid_body_pause_ms});
        // A shed request was already answered during the pause and the
        // server is draining us; a failed second write is fine then.
        (void)send_all(second);
    }
    std::string response;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (!sent_ok || response.rfind("HTTP/1.1 ", 0) != 0) return -1;
    return std::atoi(response.c_str() + 9);
}

struct PhaseResult {
    std::size_t clients = 0;
    std::size_t requests = 0;
    std::size_t accepted = 0;
    std::size_t shed = 0;
    std::size_t failures = 0;
    double wall_seconds = 0.0;
    double ingest_p50_us = 0.0;
    double ingest_p99_us = 0.0;
    double assess_p99_us = 0.0;
    double accepted_records_per_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    const char* out_path = "BENCH_9.json";
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

    // One batch is sized to ~55% of the budget in estimated records: a
    // lone client (sequential, one request in flight) always fits, two
    // overlapping in-flight bodies cross the soft watermark and the
    // later large request is shed.
    constexpr std::size_t kBudgetRecords = 50000;
    constexpr std::size_t kRecordsPerBatch = 11000;
    const std::size_t requests_per_client = smoke ? 3 : 30;
    const int pause_ms = smoke ? 2 : 3;
    const std::vector<std::size_t> client_counts{1, 2, 4, 8};

    std::printf("ingest_pipeline: %zu-record batches against a %zu-record "
                "gate budget, %zu requests/client, phases 1/2/4/8 clients%s\n",
                kRecordsPerBatch, kBudgetRecords, requests_per_client,
                smoke ? " (smoke)" : "");

    repsys::FeedbackStore store{32};
    serve::BatchAssessorConfig assessor_config;
    assessor_config.threads = 2;
    assessor_config.screener_horizon = 16;
    serve::BatchAssessor assessor{
        assessor_config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")}};

    net::IngestServiceConfig service_config;
    service_config.max_records_per_request = 2 * kRecordsPerBatch;
    service_config.gate.pending_budget = kBudgetRecords;
    net::IngestService service{store, assessor, service_config};

    obs::IntrospectionTree tree;
    net::IntrospectionSources sources;
    sources.registry = &obs::default_registry();
    sources.store = &store;
    sources.assessor = &assessor;
    net::register_introspection(tree, sources);
    net::register_ingest(tree, service);

    net::HttpServerConfig http;
    http.ingest_gate = &service.gate();
    net::HttpServer server{http, net::make_http_handler(tree, &service)};
    server.start();
    const std::uint16_t port = server.port();

    std::atomic<repsys::Timestamp> clock{0};
    std::atomic<std::uint64_t> acknowledged_records{0};

    std::vector<PhaseResult> phases;
    for (const std::size_t clients : client_counts) {
        const std::uint64_t shed_before = service.gate().shed_total();
        std::mutex merge_mutex;
        std::vector<double> ingest_lat, assess_lat;
        std::size_t accepted = 0, shed = 0, failures = 0;

        const auto phase_start = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        for (std::size_t c = 0; c < clients; ++c) {
            pool.emplace_back([&, c] {
                std::vector<double> my_ingest, my_assess;
                std::size_t my_accepted = 0, my_shed = 0, my_failures = 0;
                bool server_live = false;  // first accepted batch seen?
                const auto server_id = static_cast<repsys::EntityId>(
                    1000 + clients * 100 + c);
                for (std::size_t r = 0; r < requests_per_client; ++r) {
                    std::string body;
                    body.reserve(kRecordsPerBatch * 16);
                    for (std::size_t i = 0; i < kRecordsPerBatch; ++i) {
                        const repsys::Timestamp t =
                            clock.fetch_add(1, std::memory_order_relaxed) + 1;
                        body += std::to_string(server_id) + ' ' +
                                std::to_string(t) + ' ' +
                                (i % 8 == 0 ? "0" : "1") + '\n';
                    }
                    const obs::Stopwatch watch;
                    const int status = streaming_post(port, body, pause_ms);
                    const double seconds = watch.seconds();
                    if (status == 200) {
                        ++my_accepted;
                        my_ingest.push_back(seconds);
                        acknowledged_records.fetch_add(
                            kRecordsPerBatch, std::memory_order_relaxed);
                        server_live = true;
                    } else if (status == 429) {
                        ++my_shed;
                    } else {
                        ++my_failures;
                    }
                    if (server_live) {
                        const obs::Stopwatch assess_watch;
                        const auto page = net::http_get(
                            "127.0.0.1", port,
                            "/assess?server=" + std::to_string(server_id),
                            30.0);
                        if (page && page->status == 200) {
                            my_assess.push_back(assess_watch.seconds());
                        } else {
                            ++my_failures;
                        }
                    }
                }
                const std::lock_guard<std::mutex> lock{merge_mutex};
                ingest_lat.insert(ingest_lat.end(), my_ingest.begin(),
                                  my_ingest.end());
                assess_lat.insert(assess_lat.end(), my_assess.begin(),
                                  my_assess.end());
                accepted += my_accepted;
                shed += my_shed;
                failures += my_failures;
            });
        }
        for (std::thread& t : pool) t.join();
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - phase_start)
                                .count();

        PhaseResult result;
        result.clients = clients;
        result.requests = clients * requests_per_client;
        result.accepted = accepted;
        result.shed = shed;
        result.failures = failures;
        result.wall_seconds = wall;
        result.ingest_p50_us = percentile_us(ingest_lat, 0.50);
        result.ingest_p99_us = percentile_us(ingest_lat, 0.99);
        result.assess_p99_us = percentile_us(assess_lat, 0.99);
        result.accepted_records_per_s =
            wall > 0.0 ? static_cast<double>(accepted * kRecordsPerBatch) / wall
                       : 0.0;
        phases.push_back(result);

        std::printf("phase %zu clients: %zu/%zu accepted, %zu shed "
                    "(gate delta %llu), %zu failures; ingest p50 %.0fus "
                    "p99 %.0fus, assess p99 %.0fus, %.0f rec/s\n",
                    clients, accepted, result.requests, shed,
                    static_cast<unsigned long long>(service.gate().shed_total() -
                                                    shed_before),
                    failures, result.ingest_p50_us, result.ingest_p99_us,
                    result.assess_p99_us, result.accepted_records_per_s);
    }

    // Quiesce, then audit the conservation laws.
    for (int i = 0; i < 500 && service.gate().pending() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    server.stop();

    bool ok = true;
    if (service.gate().pending() != 0) {
        std::fprintf(stderr, "FAIL: gate still holds %zu pending records\n",
                     service.gate().pending());
        ok = false;
    }
    if (service.gate().released_records() != service.gate().admitted_records()) {
        std::fprintf(stderr,
                     "FAIL: gate leak — admitted %llu records, released %llu\n",
                     static_cast<unsigned long long>(
                         service.gate().admitted_records()),
                     static_cast<unsigned long long>(
                         service.gate().released_records()));
        ok = false;
    }
    const std::uint64_t acknowledged = acknowledged_records.load();
    if (store.size() != acknowledged ||
        service.accepted_records() != acknowledged) {
        std::fprintf(stderr,
                     "FAIL: conservation — clients acknowledged %llu records, "
                     "store holds %zu, service counted %llu\n",
                     static_cast<unsigned long long>(acknowledged),
                     store.size(),
                     static_cast<unsigned long long>(service.accepted_records()));
        ok = false;
    }
    std::size_t total_failures = 0;
    for (const PhaseResult& phase : phases) total_failures += phase.failures;
    if (total_failures != 0) {
        std::fprintf(stderr, "FAIL: %zu malformed/failed exchanges\n",
                     total_failures);
        ok = false;
    }
    if (!smoke && phases.size() >= 2 && phases[1].shed == 0) {
        std::fprintf(stderr,
                     "FAIL: 2-client overload shed nothing — the gate never "
                     "pushed back\n");
        ok = false;
    }

    const unsigned hw = std::thread::hardware_concurrency();
    const bool enforce_latency = !smoke && hw >= 8;
    const double ingest_budget_us = 200000.0;
    const double assess_budget_us = 50000.0;
    if (enforce_latency && !phases.empty()) {
        if (phases[0].ingest_p99_us > ingest_budget_us) {
            std::fprintf(stderr,
                         "FAIL: 1-client accepted-ingest p99 %.0fus exceeds "
                         "%.0fus\n",
                         phases[0].ingest_p99_us, ingest_budget_us);
            ok = false;
        }
        if (phases[0].assess_p99_us > assess_budget_us) {
            std::fprintf(stderr,
                         "FAIL: 1-client assess p99 %.0fus exceeds %.0fus\n",
                         phases[0].assess_p99_us, assess_budget_us);
            ok = false;
        }
    }

    std::vector<double> xs;
    bench::Series accepted_series{"accepted", {}};
    bench::Series shed_series{"shed", {}};
    bench::Series p99_series{"ingest_p99_ms", {}};
    for (const PhaseResult& phase : phases) {
        xs.push_back(static_cast<double>(phase.clients));
        accepted_series.values.push_back(static_cast<double>(phase.accepted));
        shed_series.values.push_back(static_cast<double>(phase.shed));
        p99_series.values.push_back(phase.ingest_p99_us / 1000.0);
    }
    bench::print_figure("ingest pipeline under overload", "clients", xs,
                        {accepted_series, shed_series, p99_series});

    if (std::FILE* out = std::fopen(out_path, "w")) {
        std::fprintf(out,
                     "{\n"
                     "  \"bench\": \"ingest_pipeline\",\n"
                     "  \"smoke\": %s,\n"
                     "  \"hardware_threads\": %u,\n"
                     "  \"gate_budget_records\": %zu,\n"
                     "  \"records_per_batch\": %zu,\n"
                     "  \"requests_per_client\": %zu,\n"
                     "  \"phases\": [\n",
                     smoke ? "true" : "false", hw, kBudgetRecords,
                     kRecordsPerBatch, requests_per_client);
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const PhaseResult& phase = phases[i];
            std::fprintf(
                out,
                "    {\"clients\": %zu, \"requests\": %zu, "
                "\"accepted\": %zu, \"shed\": %zu, \"failures\": %zu, "
                "\"shed_rate\": %.3f, \"wall_seconds\": %.3f, "
                "\"ingest_p50_us\": %.0f, \"ingest_p99_us\": %.0f, "
                "\"assess_p99_us\": %.0f, "
                "\"accepted_records_per_s\": %.0f}%s\n",
                phase.clients, phase.requests, phase.accepted, phase.shed,
                phase.failures,
                phase.requests > 0 ? static_cast<double>(phase.shed) /
                                         static_cast<double>(phase.requests)
                                   : 0.0,
                phase.wall_seconds, phase.ingest_p50_us, phase.ingest_p99_us,
                phase.assess_p99_us, phase.accepted_records_per_s,
                i + 1 < phases.size() ? "," : "");
        }
        std::fprintf(
            out,
            "  ],\n"
            "  \"conservation\": {\n"
            "    \"acknowledged_records\": %llu,\n"
            "    \"store_records\": %zu,\n"
            "    \"service_accepted_records\": %llu,\n"
            "    \"gate_admitted_records\": %llu,\n"
            "    \"gate_released_records\": %llu,\n"
            "    \"gate_pending_after_quiesce\": %zu\n"
            "  },\n"
            "  \"budgets\": {\n"
            "    \"two_client_shed_required\": %s,\n"
            "    \"ingest_p99_budget_us\": %.0f,\n"
            "    \"assess_p99_budget_us\": %.0f,\n"
            "    \"latency_budgets_enforced\": %s\n"
            "  },\n"
            "  \"all_budgets_met\": %s\n"
            "}\n",
            static_cast<unsigned long long>(acknowledged), store.size(),
            static_cast<unsigned long long>(service.accepted_records()),
            static_cast<unsigned long long>(service.gate().admitted_records()),
            static_cast<unsigned long long>(service.gate().released_records()),
            service.gate().pending(), smoke ? "false" : "true",
            ingest_budget_us, assess_budget_us,
            enforce_latency ? "true" : "false",
            ok && enforce_latency ? "true" : "false");
        std::fclose(out);
        std::printf("wrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
        ok = false;
    }

    bench::print_metrics();
    return ok ? 0 : 1;
}
