// Ingest-under-fire stress for the network write path, meant to run
// under -DHPR_SANITIZE=thread and address as well as plain builds.
// Eight threads share one live daemon: three HTTP ingest writers over
// disjoint server populations, two /assess + /ingest/stats scrapers, a
// direct batch-assessment caller, an eviction churner, and a vandal
// that declares large bodies and disconnects mid-transfer.  Sanitizers
// validate the synchronization; the assertions validate the two
// conservation laws of the gate and the store:
//
//  * records: every record acknowledged with 200 is either resident in
//    the store or was evicted — none lost, none duplicated;
//  * budget: after quiescence the gate's pending charge is zero and
//    released == admitted, even though many connections died mid-body.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/endpoints.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/ingest.h"
#include "obs/introspection.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"

namespace hpr::net {
namespace {

TEST(IngestStress, ConservationHoldsUnderConcurrentChurn) {
    constexpr std::size_t kWriters = 3;
    constexpr std::size_t kRoundsPerWriter = 40;
    constexpr std::size_t kRecordsPerBatch = 20;
    constexpr std::size_t kServersPerWriter = 4;

    repsys::FeedbackStore store{8};
    serve::BatchAssessorConfig assessor_config;
    assessor_config.threads = 2;
    assessor_config.screener_horizon = 8;
    serve::BatchAssessor assessor{
        assessor_config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")}};

    IngestService service{store, assessor};
    obs::IntrospectionTree tree;
    IntrospectionSources sources;
    sources.store = &store;
    sources.assessor = &assessor;
    register_introspection(tree, sources);
    register_ingest(tree, service);

    HttpServerConfig http;
    http.ingest_gate = &service.gate();
    HttpServer server{http, make_http_handler(tree, &service)};
    server.start();
    const std::uint16_t port = server.port();

    // One logical clock for every record: per-server timestamps are then
    // strictly increasing by construction, and the evictor can advance a
    // cutoff that is coherent across writers.
    std::atomic<repsys::Timestamp> clock{0};

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> acknowledged_records{0};
    std::atomic<std::uint64_t> writer_failures{0};
    std::atomic<std::uint64_t> evicted_records{0};
    std::atomic<std::uint64_t> scrape_answers{0};
    std::atomic<std::uint64_t> scrape_failures{0};
    std::atomic<std::uint64_t> abandoned_connections{0};
    std::vector<std::thread> pool;

    // 3 HTTP ingest writers over disjoint server id ranges.
    for (std::size_t w = 0; w < kWriters; ++w) {
        pool.emplace_back([&, w] {
            for (std::size_t round = 0; round < kRoundsPerWriter; ++round) {
                const auto server_id = static_cast<repsys::EntityId>(
                    100 + w * kServersPerWriter + round % kServersPerWriter);
                std::string body;
                for (std::size_t i = 0; i < kRecordsPerBatch; ++i) {
                    const repsys::Timestamp t =
                        clock.fetch_add(1, std::memory_order_relaxed) + 1;
                    body += std::to_string(server_id) + ' ' +
                            std::to_string(t) + ' ' +
                            (i % 5 == 0 ? "0" : "1") + '\n';
                }
                const auto posted =
                    http_post("127.0.0.1", port, "/ingest", body, 10.0);
                if (posted && posted->status == 200) {
                    acknowledged_records.fetch_add(
                        kRecordsPerBatch, std::memory_order_relaxed);
                    EXPECT_EQ(posted->body,
                              "accepted=" +
                                  std::to_string(kRecordsPerBatch) + '\n');
                } else {
                    writer_failures.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }

    // 2 HTTP scrapers: /assess over the writers' servers + gate stats.
    for (std::size_t t = 0; t < 2; ++t) {
        pool.emplace_back([&, t] {
            std::size_t i = t;
            do {  // at least one scrape even if the writers win the race
                const auto server_id = 100 + i % (kWriters * kServersPerWriter);
                const auto target =
                    i % 3 == 2 ? std::string{"/ingest/stats"}
                               : "/assess?server=" + std::to_string(server_id);
                const auto page = http_get("127.0.0.1", port, target, 10.0);
                // 404 is legal: the server may be unborn or just evicted.
                if (page && (page->status == 200 || page->status == 404)) {
                    scrape_answers.fetch_add(1, std::memory_order_relaxed);
                } else {
                    scrape_failures.fetch_add(1, std::memory_order_relaxed);
                }
                ++i;
            } while (!stop.load(std::memory_order_relaxed));
        });
    }

    // 1 direct assessment caller racing ingest and eviction.
    pool.emplace_back([&] {
        do {
            for (std::size_t s = 0; s < kWriters * kServersPerWriter; ++s) {
                try {
                    const auto results = assessor.assess(
                        store, {static_cast<repsys::EntityId>(100 + s)});
                    EXPECT_EQ(results.size(), 1u);
                } catch (const std::out_of_range&) {
                    // Evicted or not yet born — legal at any moment.
                }
            }
        } while (!stop.load(std::memory_order_relaxed));
    });

    // 1 eviction churner: advance a retention cutoff behind the clock
    // and keep the screener bank synchronized with the store.
    pool.emplace_back([&] {
        do {
            const repsys::Timestamp cutoff =
                clock.load(std::memory_order_relaxed) / 2;
            std::vector<repsys::EntityId> forgotten;
            evicted_records.fetch_add(store.evict_before(cutoff, &forgotten),
                                      std::memory_order_relaxed);
            assessor.drop_streams(forgotten);
            std::this_thread::sleep_for(std::chrono::milliseconds{5});
        } while (!stop.load(std::memory_order_relaxed));
    });

    // 1 vandal: declare a large body, deliver a fragment, vanish.  Each
    // admission charge must come back when the connection dies.
    pool.emplace_back([&] {
        do {
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0) break;
            sockaddr_in address{};
            address.sin_family = AF_INET;
            address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            address.sin_port = htons(port);
            if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                          sizeof address) == 0) {
                const std::string partial =
                    "POST /ingest HTTP/1.1\r\nHost: x\r\n"
                    "Content-Length: 5000\r\n\r\n999 1 1\n";
                (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
                abandoned_connections.fetch_add(1, std::memory_order_relaxed);
            }
            ::close(fd);  // FIN mid-body: the server sees EOF, not a batch
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
        } while (!stop.load(std::memory_order_relaxed));
    });

    // Writers are bounded; join them, then release the loops.
    for (std::size_t w = 0; w < kWriters; ++w) pool[w].join();
    stop.store(true, std::memory_order_relaxed);
    for (std::size_t t = kWriters; t < pool.size(); ++t) pool[t].join();

    // Drain: the vandal's last connections may still be in the server's
    // maps; the gate must return every charge as they die.
    for (int i = 0; i < 500 && service.gate().pending() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    EXPECT_EQ(service.gate().pending(), 0u);
    server.stop();
    EXPECT_EQ(service.gate().released_records(),
              service.gate().admitted_records());

    // Record conservation: every acknowledged record is resident or
    // evicted; nothing lost, nothing duplicated.
    EXPECT_EQ(writer_failures.load(), 0u);
    EXPECT_EQ(acknowledged_records.load(),
              store.size() + evicted_records.load());
    EXPECT_EQ(acknowledged_records.load(),
              kWriters * kRoundsPerWriter * kRecordsPerBatch);
    EXPECT_EQ(service.accepted_records(), acknowledged_records.load());

    // The battlefield was real: scrapes answered, connections died.
    EXPECT_GT(scrape_answers.load(), 0u);
    EXPECT_EQ(scrape_failures.load(), 0u);
    EXPECT_GT(abandoned_connections.load(), 0u);

    // The vandal's phantom server never materialized.
    EXPECT_FALSE(store.contains(999));
}

}  // namespace
}  // namespace hpr::net
