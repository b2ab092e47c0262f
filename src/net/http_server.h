#ifndef HPR_NET_HTTP_SERVER_H
#define HPR_NET_HTTP_SERVER_H

/// \file http_server.h
/// A minimal dependency-free epoll HTTP/1.1 front-end.
///
/// The introspection daemon (ROADMAP item 1) needs exactly one network
/// capability: answer small GET requests against live process state
/// while the process serves heavy ingest+assess load — and never let a
/// slow, hostile, or excessive scraper interfere with that load.  This
/// server is sized to that job, not to general web serving:
///
///  * **one event-loop thread**, non-blocking accept/read/write over
///    level-triggered epoll; handlers (the IntrospectionTree) run on
///    that thread, so the hot assessment path never sees an HTTP stall;
///  * **bounded admission**: at most `max_connections` concurrent
///    connections; a connection beyond the bound is answered `503
///    Service Unavailable` and closed immediately (backpressure the
///    scraper can see, instead of an unbounded accept queue);
///  * **request timeout**: a connection that has not completed its
///    request headers within `request_timeout_seconds` (slow-loris) is
///    answered `408 Request Timeout` (best effort) and closed;
///  * **bounded parsing**: request line + headers above
///    `max_request_bytes` draw `431`, malformed request lines `400`,
///    methods other than GET/HEAD/POST `405` — each followed by a close;
///  * **bounded bodies** (the ingest write path): a POST must declare a
///    Content-Length (`411` otherwise, `501` for Transfer-Encoding);
///    a declared length above `max_body_bytes` draws `413` *before* the
///    body is buffered, a body that stalls mid-stream falls under the
///    same `request_timeout_seconds` deadline (`408`), and a peer that
///    half-closes before completing its request is answered a
///    best-effort `400` instead of a silent close;
///  * **ingest admission** (optional): when `config.ingest_gate` is
///    set, every POST is charged against the gate's pending-records
///    budget at header-parse time — *before* its body is buffered — and
///    a shed request draws `429 Too Many Requests` with a `Retry-After`
///    header while its body bytes are drained and discarded.  The
///    charge is released when the request is dispatched or its
///    connection dies, whichever comes first, so a client disconnecting
///    mid-body can never leak budget;
///  * **graceful drain**: request_stop() is async-signal-safe (one
///    eventfd write), so SIGINT/SIGTERM handlers can call it directly;
///    the loop then stops accepting, finishes in-flight responses for
///    up to `drain_timeout_seconds`, and exits.
///
/// Every response carries `Connection: close` — scrape traffic is one
/// request per connection, which keeps connection state machines to a
/// single in/out buffer pair and makes the admission bound meaningful.
///
/// The front-end instruments itself through the same obs registry it
/// typically serves: hpr_http_requests_total, hpr_http_responses_total
/// (by class), hpr_http_rejected_total, hpr_http_timeouts_total,
/// hpr_http_malformed_total, hpr_http_bytes_sent_total,
/// hpr_http_active_connections and the hpr_http_request_seconds
/// latency histogram (request parsed -> response flushed).

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace hpr::net {

class IngestGate;

/// One parsed request.
struct HttpRequest {
    std::string method;   ///< "GET", "HEAD" or "POST"
    std::string target;   ///< as sent: path plus optional "?query"
    std::string path;     ///< target before '?'
    std::string query;    ///< target after '?', possibly empty
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;     ///< exactly Content-Length bytes; empty for GET/HEAD

    /// First header with the given name, case-insensitively.
    [[nodiscard]] std::optional<std::string> header(std::string_view name) const;
};

/// One response; the server adds the status line, Content-Type,
/// Content-Length and Connection headers.
struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;

    /// Additional response headers (e.g. Retry-After on a 429), written
    /// verbatim after the standard ones.
    std::vector<std::pair<std::string, std::string>> extra_headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Standard reason phrase for the status codes this server emits
/// ("OK", "Not Found", ...); "Unknown" otherwise.
[[nodiscard]] const char* status_reason(int status) noexcept;

struct HttpServerConfig {
    std::string bind_address = "127.0.0.1";

    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    std::uint16_t port = 0;

    /// Concurrent-connection bound; connection max_connections+1 is
    /// answered 503 and closed (admission control).
    std::size_t max_connections = 64;

    /// Request line + headers byte bound; beyond it the request draws
    /// 431 and the connection closes.
    std::size_t max_request_bytes = 8192;

    /// Request body byte bound: a POST declaring more draws 413 before
    /// any body byte is buffered (its body is drained and discarded so
    /// the error page survives the peer's send queue).
    std::size_t max_body_bytes = std::size_t{1} << 20;

    /// Optional ingest admission control: when set, every POST is
    /// charged against this gate at header-parse time (see the file
    /// comment).  Non-owning; the gate must outlive the server.
    IngestGate* ingest_gate = nullptr;

    /// Deadline for a connection to deliver its complete request
    /// headers; a slow-loris that misses it draws a best-effort 408 and
    /// a close.  Also bounds how long an unflushed response may linger.
    double request_timeout_seconds = 5.0;

    /// How long stop() keeps serving in-flight connections before
    /// force-closing them.
    double drain_timeout_seconds = 2.0;

    /// listen(2) backlog.
    int backlog = 64;
};

/// The epoll front-end.  start() spawns the event-loop thread; the
/// handler runs on that thread and must be thread-safe against the rest
/// of the process (IntrospectionTree and every obs/serve/repsys source
/// already is).  Thread-safe: start/stop/request_stop/port may be
/// called from any thread; request_stop is async-signal-safe.
class HttpServer {
public:
    /// \throws std::invalid_argument if handler is null.
    HttpServer(HttpServerConfig config, HttpHandler handler);

    /// Stops and joins (best effort) if still running.
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Bind, listen and spawn the event loop.
    /// \throws std::runtime_error on socket/bind/listen failure.
    void start();

    /// The bound TCP port (resolves config 0 to the ephemeral port).
    /// Valid after start().
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }

    /// Ask the event loop to drain and exit.  Async-signal-safe (a
    /// single eventfd write), so SIGINT/SIGTERM handlers may call it.
    void request_stop() noexcept;

    /// request_stop() and join the loop thread.  Idempotent.
    void stop();

    /// Event-loop responsiveness self-test: queue a ping through the
    /// loop's eventfd (the same wake mechanism request_stop uses).  The
    /// loop acknowledges it at its next wakeup; ping_lag_seconds() then
    /// reports how long that took — a direct measurement of how
    /// promptly the loop is turning over under its current load.
    /// \returns false when the server is not running or the previous
    /// ping is still unacknowledged (one measurement in flight at a
    /// time keeps the timestamps unambiguous).
    bool ping() noexcept;

    /// Lag of the most recently acknowledged ping, in seconds; negative
    /// when no ping has been acknowledged yet.
    [[nodiscard]] double ping_lag_seconds() const noexcept;

    /// Lifetime totals of THIS server instance (the obs registry
    /// aggregates across instances): completed responses, 503
    /// admission rejections, 408 request timeouts, 400/431/405 parse
    /// rejections, bytes written.
    [[nodiscard]] std::uint64_t requests_served() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t rejected_connections() const noexcept {
        return rejected_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t timed_out_connections() const noexcept {
        return timeouts_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t malformed_requests() const noexcept {
        return malformed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
        return bytes_sent_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] const HttpServerConfig& config() const noexcept {
        return config_;
    }

private:
    struct Connection;

    void run_loop();
    void close_listener();

    HttpServerConfig config_;
    HttpHandler handler_;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread loop_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};

    std::atomic<std::uint64_t> ping_sent_ns_{0};  ///< 0 = no ping in flight
    std::atomic<std::int64_t> ping_lag_ns_{-1};   ///< -1 = none acked yet

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> timeouts_{0};
    std::atomic<std::uint64_t> malformed_{0};
    std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace hpr::net

#endif  // HPR_NET_HTTP_SERVER_H
