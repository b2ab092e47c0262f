// The epoll HTTP front-end (net/http_server.h): request/response round
// trips, every rejection path (400 malformed, 405 method, 431 oversized,
// 408 slow-loris, 503 admission control), the POST body state machine
// (411/501/400/413/408 and split-body reassembly), graceful drain, and
// the per-instance counters each path maintains.

#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "net/http_client.h"

namespace hpr::net {
namespace {

HttpHandler echo_handler() {
    return [](const HttpRequest& request) {
        HttpResponse response;
        response.body = request.method + " path=" + request.path +
                        " query=" + request.query + "\n";
        if (const auto agent = request.header("User-Agent")) {
            response.body += "agent=" + *agent + "\n";
        }
        return response;
    };
}

/// A raw TCP connection held open without sending anything — the
/// admission-control and slow-loris counterpart of a real client.
class HeldConnection {
public:
    explicit HeldConnection(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                               sizeof address) == 0;
    }
    ~HeldConnection() {
        if (fd_ >= 0) ::close(fd_);
    }
    [[nodiscard]] bool connected() const { return connected_; }
    void send_bytes(const std::string& bytes) const {
        (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    /// Read the server's response until it closes (bounded by a 5s
    /// receive timeout per read).
    [[nodiscard]] std::string read_to_eof() const {
        timeval tv{5, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        std::string out;
        char buffer[4096];
        for (;;) {
            const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
            if (n <= 0) break;
            out.append(buffer, static_cast<std::size_t>(n));
        }
        return out;
    }

private:
    int fd_ = -1;
    bool connected_ = false;
};

TEST(HttpServer, RejectsNullHandler) {
    EXPECT_THROW(HttpServer({}, nullptr), std::invalid_argument);
}

TEST(HttpServer, ServesGetWithQueryAndHeaders) {
    HttpServer server{{}, echo_handler()};
    server.start();
    ASSERT_GT(server.port(), 0);

    const auto result = http_get("127.0.0.1", server.port(), "/a/b?x=1&y=2");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 200);
    EXPECT_EQ(result->body, "GET path=/a/b query=x=1&y=2\n");
    ASSERT_TRUE(result->header("Content-Type").has_value());
    EXPECT_EQ(*result->header("content-type"), "text/plain; charset=utf-8");
    ASSERT_TRUE(result->header("Content-Length").has_value());
    EXPECT_EQ(std::stoul(*result->header("Content-Length")),
              result->body.size());
    EXPECT_EQ(*result->header("Connection"), "close");

    server.stop();
    EXPECT_EQ(server.requests_served(), 1u);
    EXPECT_GT(server.bytes_sent(), result->body.size());
}

TEST(HttpServer, HeadSuppressesTheBodyButKeepsContentLength) {
    HttpServer server{{}, echo_handler()};
    server.start();
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "HEAD /x HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n");
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    const std::string expected_body = "HEAD path=/x query=\n";
    EXPECT_NE(raw->find("Content-Length: " +
                        std::to_string(expected_body.size())),
              std::string::npos);
    // Headers only: the exchange ends exactly at the blank line.
    EXPECT_EQ(raw->substr(raw->size() - 4), "\r\n\r\n");
    EXPECT_EQ(raw->find(expected_body), std::string::npos);
}

TEST(HttpServer, HandlerExceptionsBecome500) {
    HttpServer server{{}, [](const HttpRequest&) -> HttpResponse {
                          throw std::runtime_error("scrape handler died");
                      }};
    server.start();
    const auto result = http_get("127.0.0.1", server.port(), "/");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 500);
    EXPECT_NE(result->body.find("scrape handler died"), std::string::npos);
}

TEST(HttpServer, MalformedRequestLinesDraw400) {
    HttpServer server{{}, echo_handler()};
    server.start();
    for (const char* junk :
         {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET  HTTP/1.1\r\n\r\n",
          "GET /x SPDY/9\r\n\r\n", "GET relative HTTP/1.1\r\n\r\n",
          "GET /x HTTP/1.1 extra\r\n\r\n"}) {
        const auto raw = http_exchange("127.0.0.1", server.port(), junk);
        ASSERT_TRUE(raw.has_value()) << junk;
        EXPECT_NE(raw->find("HTTP/1.1 400 Bad Request"), std::string::npos)
            << junk;
    }
    server.stop();
    EXPECT_EQ(server.malformed_requests(), 6u);
    EXPECT_EQ(server.requests_served(), 6u);  // error pages are responses too
}

TEST(HttpServer, UnsupportedMethodsDraw405) {
    HttpServer server{{}, echo_handler()};
    server.start();
    for (const char* method : {"PUT", "DELETE", "PATCH"}) {
        const auto raw = http_exchange(
            "127.0.0.1", server.port(),
            std::string{method} +
                " /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n");
        ASSERT_TRUE(raw.has_value()) << method;
        EXPECT_NE(raw->find("HTTP/1.1 405 Method Not Allowed"),
                  std::string::npos)
            << method;
    }
    server.stop();
    EXPECT_EQ(server.malformed_requests(), 3u);
}

TEST(HttpServer, PostDeliversItsBodyToTheHandler) {
    HttpServer server{{}, [](const HttpRequest& request) {
                          HttpResponse response;
                          response.body = request.method + " got " +
                                          std::to_string(request.body.size()) +
                                          " bytes: " + request.body;
                          return response;
                      }};
    server.start();
    const auto result =
        http_post("127.0.0.1", server.port(), "/ingest", "1 2 3\n4 5 6\n");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 200);
    EXPECT_EQ(result->body, "POST got 12 bytes: 1 2 3\n4 5 6\n");
    server.stop();
    EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServer, PostBodySplitAcrossWritesIsReassembled) {
    HttpServer server{{}, [](const HttpRequest& request) {
                          HttpResponse response;
                          response.body = request.body;
                          return response;
                      }};
    server.start();
    HeldConnection client{server.port()};
    ASSERT_TRUE(client.connected());
    // Headers, then the body in three separate writes with pauses: the
    // server must wait for the full declared length before dispatching.
    client.send_bytes("POST /in HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    client.send_bytes("abc");
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    client.send_bytes("def");
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    client.send_bytes("ghi");
    const std::string raw = client.read_to_eof();
    EXPECT_NE(raw.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(raw.find("abcdefghi"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServer, PostWithoutContentLengthDraws411) {
    HttpServer server{{}, echo_handler()};
    server.start();
    const auto raw =
        http_exchange("127.0.0.1", server.port(),
                      "POST /ingest HTTP/1.1\r\nHost: h\r\n\r\n", 5.0, true);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 411 Length Required"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.malformed_requests(), 1u);
}

TEST(HttpServer, TransferEncodingDraws501) {
    HttpServer server{{}, echo_handler()};
    server.start();
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "POST /ingest HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n",
        5.0, true);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 501 Not Implemented"), std::string::npos);
    server.stop();
}

TEST(HttpServer, GarbageContentLengthDraws400) {
    HttpServer server{{}, echo_handler()};
    server.start();
    for (const char* bad : {"abc", "-5", "1e3", "18446744073709551616", ""}) {
        const auto raw = http_exchange(
            "127.0.0.1", server.port(),
            "POST /ingest HTTP/1.1\r\nHost: h\r\nContent-Length: " +
                std::string{bad} + "\r\n\r\n",
            5.0, true);
        ASSERT_TRUE(raw.has_value()) << bad;
        EXPECT_NE(raw->find("HTTP/1.1 400 Bad Request"), std::string::npos)
            << bad;
    }
    server.stop();
}

TEST(HttpServer, OversizedDeclaredBodyDraws413BeforeTheBodyArrives) {
    HttpServerConfig config;
    config.max_body_bytes = 1024;
    HttpServer server{config, echo_handler()};
    server.start();
    // Only the headers are sent: the refusal must come from the declared
    // length alone, before any body byte exists.
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "POST /ingest HTTP/1.1\r\nHost: h\r\nContent-Length: 2048\r\n\r\n", 5.0,
        true);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 413 Payload Too Large"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.requests_served(), 0u);  // never dispatched
}

TEST(HttpServer, GetAdvertisingABodyDraws400) {
    HttpServer server{{}, echo_handler()};
    server.start();
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello", 5.0,
        true);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 400 Bad Request"), std::string::npos);
    server.stop();
}

TEST(HttpServer, StalledBodyDraws408) {
    HttpServerConfig config;
    config.request_timeout_seconds = 0.2;
    HttpServer server{config, echo_handler()};
    server.start();
    // Complete headers, half the declared body, then silence.
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "POST /ingest HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nhal",
        5.0);
    ASSERT_TRUE(raw.has_value());
    if (!raw->empty()) {
        EXPECT_NE(raw->find("HTTP/1.1 408 Request Timeout"), std::string::npos);
    }
    server.stop();
    EXPECT_EQ(server.timed_out_connections(), 1u);
    EXPECT_EQ(server.requests_served(), 0u);
}

TEST(HttpServer, EofBeforeACompleteRequestDrawsBestEffort400) {
    HttpServer server{{}, echo_handler()};
    server.start();
    // Truncated mid-body, then half-close: the server answers instead of
    // silently dropping the connection.
    const auto raw = http_exchange(
        "127.0.0.1", server.port(),
        "POST /ingest HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nhal",
        5.0, true);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 400 Bad Request"), std::string::npos);
    EXPECT_NE(raw->find("incomplete request"), std::string::npos);
    server.stop();
}

TEST(HttpServer, ExtraHeadersAreEmitted) {
    HttpServer server{{}, [](const HttpRequest&) {
                          HttpResponse response;
                          response.extra_headers.emplace_back("Retry-After",
                                                              "7");
                          response.extra_headers.emplace_back("X-Custom",
                                                              "yes");
                          return response;
                      }};
    server.start();
    const auto result = http_get("127.0.0.1", server.port(), "/");
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->header("Retry-After").has_value());
    EXPECT_EQ(*result->header("Retry-After"), "7");
    EXPECT_EQ(*result->header("X-Custom"), "yes");
    server.stop();
}

TEST(HttpServer, OversizedHeadersDraw431) {
    HttpServerConfig config;
    config.max_request_bytes = 256;
    HttpServer server{config, echo_handler()};
    server.start();
    std::string request = "GET / HTTP/1.1\r\nX-Pad: ";
    request.append(1024, 'a');
    request += "\r\n\r\n";
    const auto raw = http_exchange("127.0.0.1", server.port(), request);
    ASSERT_TRUE(raw.has_value());
    EXPECT_NE(raw->find("HTTP/1.1 431 "), std::string::npos);
    server.stop();
    EXPECT_EQ(server.malformed_requests(), 1u);
}

TEST(HttpServer, SlowLorisDrawsBestEffort408AndCloses) {
    HttpServerConfig config;
    config.request_timeout_seconds = 0.2;
    HttpServer server{config, echo_handler()};
    server.start();

    // Half a request line, then silence: the deadline must fire.
    const auto raw = http_exchange("127.0.0.1", server.port(),
                                   "GET /slow HTTP/1.1\r\nX-Par", 5.0);
    ASSERT_TRUE(raw.has_value());  // server closed (possibly after a 408)
    if (!raw->empty()) {
        EXPECT_NE(raw->find("HTTP/1.1 408 Request Timeout"), std::string::npos);
    }
    server.stop();
    EXPECT_EQ(server.timed_out_connections(), 1u);
    EXPECT_EQ(server.requests_served(), 0u);
}

TEST(HttpServer, AdmissionControlAnswers503BeyondTheBound) {
    HttpServerConfig config;
    config.max_connections = 1;
    HttpServer server{{config}, echo_handler()};
    server.start();

    HeldConnection hog{server.port()};
    ASSERT_TRUE(hog.connected());
    // Give the event loop a moment to accept the hog.
    for (int i = 0; i < 100 && server.rejected_connections() == 0; ++i) {
        const auto result = http_get("127.0.0.1", server.port(), "/", 1.0);
        if (result && result->status == 503) break;
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
    const auto rejected = http_get("127.0.0.1", server.port(), "/", 1.0);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->status, 503);
    EXPECT_GE(server.rejected_connections(), 1u);
}

TEST(HttpServer, ConnectionSlotIsReleasedAfterTheHogCloses) {
    HttpServerConfig config;
    config.max_connections = 1;
    config.request_timeout_seconds = 0.3;
    HttpServer server{config, echo_handler()};
    server.start();
    {
        HeldConnection hog{server.port()};
        ASSERT_TRUE(hog.connected());
        std::this_thread::sleep_for(std::chrono::milliseconds{50});
    }
    // The hog is gone (or will be reaped by its deadline); the slot must
    // come back.
    for (int i = 0; i < 100; ++i) {
        const auto result = http_get("127.0.0.1", server.port(), "/ok", 1.0);
        if (result && result->status == 200) {
            SUCCEED();
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    FAIL() << "slot was never released";
}

TEST(HttpServer, StopDrainsAndStopsAccepting) {
    HttpServer server{{}, echo_handler()};
    server.start();
    const std::uint16_t port = server.port();
    ASSERT_TRUE(http_get("127.0.0.1", port, "/pre").has_value());

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_FALSE(http_get("127.0.0.1", port, "/post", 0.5).has_value());

    // stop() is idempotent; a stopped server can be started again.
    server.stop();
    server.start();
    const auto again = http_get("127.0.0.1", server.port(), "/again");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->status, 200);
    server.stop();
}

}  // namespace
}  // namespace hpr::net
