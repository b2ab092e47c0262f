#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>

#include "net/ingest.h"
#include "obs/metrics.h"

namespace hpr::net {

namespace {

using Clock = std::chrono::steady_clock;

struct HttpMetrics {
    obs::Counter& accepted;
    obs::Counter& requests;
    obs::Counter& responses;
    obs::Counter& rejected;
    obs::Counter& timeouts;
    obs::Counter& malformed;
    obs::Counter& oversized;
    obs::Counter& shed;
    obs::Counter& bytes_sent;
    obs::Gauge& active;
    obs::Histogram& request_seconds;
};

HttpMetrics& http_metrics() {
    auto& registry = obs::default_registry();
    static HttpMetrics metrics{
        registry.counter("hpr_http_accepted_total",
                         "TCP connections accepted by the introspection front-end"),
        registry.counter("hpr_http_requests_total",
                         "HTTP requests parsed and dispatched to a handler"),
        registry.counter("hpr_http_responses_total",
                         "HTTP responses written (including error pages)"),
        registry.counter("hpr_http_rejected_total",
                         "Connections answered 503 by admission control"),
        registry.counter("hpr_http_timeouts_total",
                         "Connections closed by the request timeout (408)"),
        registry.counter("hpr_http_malformed_total",
                         "Requests rejected as malformed or unsupported (400/405/431)"),
        registry.counter("hpr_http_oversized_total",
                         "POSTs rejected 413: declared body beyond max_body_bytes"),
        registry.counter("hpr_http_shed_total",
                         "POSTs answered 429 on behalf of the ingest gate"),
        registry.counter("hpr_http_bytes_sent_total",
                         "Response bytes written to scrape clients"),
        registry.gauge("hpr_http_active_connections",
                       "Connections currently held by the front-end"),
        registry.histogram("hpr_http_request_seconds",
                           "Scrape latency: request parsed to response flushed"),
    };
    return metrics;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto lower = [](char c) {
            return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
        };
        if (lower(a[i]) != lower(b[i])) return false;
    }
    return true;
}

/// Serialize a response.  HEAD keeps the Content-Length of the body it
/// suppresses, per RFC 9110.
std::string serialize_response(const HttpResponse& response, bool head_only) {
    std::string out;
    out.reserve(response.body.size() + 128);
    out += "HTTP/1.1 ";
    out += std::to_string(response.status);
    out += ' ';
    out += status_reason(response.status);
    out += "\r\nContent-Type: ";
    out += response.content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(response.body.size());
    out += "\r\nConnection: close\r\n";
    for (const auto& [name, value] : response.extra_headers) {
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    out += "\r\n";
    if (!head_only) out += response.body;
    return out;
}

HttpResponse error_page(int status, std::string_view detail) {
    HttpResponse response;
    response.status = status;
    response.body = std::to_string(status);
    response.body += ' ';
    response.body += status_reason(status);
    if (!detail.empty()) {
        response.body += ": ";
        response.body += detail;
    }
    response.body += '\n';
    return response;
}

enum class ParseResult { kIncomplete, kOk, kMalformed, kUnsupportedMethod };

/// Parse a complete request-line + header block (terminated by CRLFCRLF)
/// out of `in`.  Strict CRLF framing: this is a machine endpoint, and
/// every real client (curl, wget, Prometheus) sends CRLF.
ParseResult parse_request(const std::string& in, HttpRequest& request) {
    const std::size_t end = in.find("\r\n\r\n");
    if (end == std::string::npos) return ParseResult::kIncomplete;
    const std::string_view head{in.data(), end};

    const std::size_t line_end = head.find("\r\n");
    const std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        sp1 == 0 || sp2 == sp1 + 1 ||
        request_line.find(' ', sp2 + 1) != std::string_view::npos) {
        return ParseResult::kMalformed;
    }
    const std::string_view method = request_line.substr(0, sp1);
    const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
        return ParseResult::kMalformed;
    }
    if (target.empty() || target.front() != '/') return ParseResult::kMalformed;
    if (method != "GET" && method != "HEAD" && method != "POST") {
        return ParseResult::kUnsupportedMethod;
    }

    request.method = std::string{method};
    request.target = std::string{target};
    const std::size_t qmark = target.find('?');
    request.path = std::string{target.substr(0, qmark)};
    request.query = qmark == std::string_view::npos
                        ? std::string{}
                        : std::string{target.substr(qmark + 1)};

    std::string_view rest =
        line_end == std::string_view::npos ? std::string_view{}
                                           : head.substr(line_end + 2);
    while (!rest.empty()) {
        const std::size_t eol = rest.find("\r\n");
        const std::string_view line =
            eol == std::string_view::npos ? rest : rest.substr(0, eol);
        rest = eol == std::string_view::npos ? std::string_view{}
                                             : rest.substr(eol + 2);
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            return ParseResult::kMalformed;
        }
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
            value.remove_prefix(1);
        }
        while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
            value.remove_suffix(1);
        }
        request.headers.emplace_back(std::string{line.substr(0, colon)},
                                     std::string{value});
    }
    return ParseResult::kOk;
}

}  // namespace

std::optional<std::string> HttpRequest::header(std::string_view name) const {
    for (const auto& [key, value] : headers) {
        if (equals_ignore_case(key, name)) return value;
    }
    return std::nullopt;
}

const char* status_reason(int status) noexcept {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 408: return "Request Timeout";
        case 411: return "Length Required";
        case 413: return "Payload Too Large";
        case 429: return "Too Many Requests";
        case 431: return "Request Header Fields Too Large";
        case 501: return "Not Implemented";
        case 500: return "Internal Server Error";
        case 503: return "Service Unavailable";
        default: return "Unknown";
    }
}

/// Per-connection state machine: reading until the header block (and,
/// for POST, the declared body) is complete, then flushing one
/// serialized response, then close.
struct HttpServer::Connection {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_written = 0;
    bool writing = false;
    bool dispatched = false;  ///< response came from the handler (not an error page)
    bool headers_done = false;  ///< request (sans body) parsed into `request`
    HttpRequest request;        ///< valid once headers_done
    std::size_t body_start = 0;   ///< offset of the body in `in`
    std::size_t body_length = 0;  ///< declared Content-Length
    std::size_t gate_charge = 0;  ///< unreleased ingest-gate records, 0 = none
    Clock::time_point deadline;
    Clock::time_point parsed_at;
};

HttpServer::HttpServer(HttpServerConfig config, HttpHandler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
    if (handler_ == nullptr) {
        throw std::invalid_argument("HttpServer: handler must not be null");
    }
    if (config_.max_connections == 0) config_.max_connections = 1;
    if (config_.max_request_bytes < 64) config_.max_request_bytes = 64;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::close_listener() {
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void HttpServer::start() {
    if (running()) throw std::runtime_error("HttpServer: already running");
    stop_requested_.store(false, std::memory_order_release);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error(std::string{"HttpServer: socket: "} +
                                 std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &address.sin_addr) != 1) {
        close_listener();
        throw std::runtime_error("HttpServer: invalid bind address '" +
                                 config_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0) {
        const std::string error = std::strerror(errno);
        close_listener();
        throw std::runtime_error("HttpServer: bind " + config_.bind_address + ":" +
                                 std::to_string(config_.port) + ": " + error);
    }
    if (::listen(listen_fd_, config_.backlog) != 0) {
        const std::string error = std::strerror(errno);
        close_listener();
        throw std::runtime_error("HttpServer: listen: " + error);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
        const std::string error = std::strerror(errno);
        close_listener();
        throw std::runtime_error("HttpServer: getsockname: " + error);
    }
    port_ = ntohs(bound.sin_port);

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (wake_fd_ < 0 || epoll_fd_ < 0) {
        const std::string error = std::strerror(errno);
        close_listener();
        if (wake_fd_ >= 0) ::close(wake_fd_);
        if (epoll_fd_ >= 0) ::close(epoll_fd_);
        wake_fd_ = epoll_fd_ = -1;
        throw std::runtime_error("HttpServer: eventfd/epoll_create1: " + error);
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

    running_.store(true, std::memory_order_release);
    loop_ = std::thread([this] { run_loop(); });
}

void HttpServer::request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
    if (wake_fd_ >= 0) {
        // The only wake mechanism: a single write(2), which is on the
        // async-signal-safe list — signal handlers call this directly.
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t written =
            ::write(wake_fd_, &one, sizeof one);
    }
}

bool HttpServer::ping() noexcept {
    if (!running()) return false;
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    std::uint64_t expected = 0;
    // One measurement in flight at a time: a second ping while the
    // first is unacknowledged would make the ack ambiguous.
    if (!ping_sent_ns_.compare_exchange_strong(expected, now_ns,
                                               std::memory_order_acq_rel)) {
        return false;
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(wake_fd_, &one, sizeof one);
    return true;
}

double HttpServer::ping_lag_seconds() const noexcept {
    const std::int64_t lag_ns = ping_lag_ns_.load(std::memory_order_acquire);
    return lag_ns < 0 ? -1.0 : static_cast<double>(lag_ns) * 1e-9;
}

void HttpServer::stop() {
    request_stop();
    if (loop_.joinable()) loop_.join();
    running_.store(false, std::memory_order_release);
    close_listener();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
}

void HttpServer::run_loop() {
    HttpMetrics& metrics = http_metrics();
    std::map<int, Connection> connections;
    // Rejected (503) sockets lingering until the client's request bytes
    // are drained: closing with unread input would RST the error page out
    // of the peer's receive buffer.  fd → reap deadline.
    std::map<int, Clock::time_point> discarding;
    bool draining = false;
    Clock::time_point drain_deadline{};
    const auto request_timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(config_.request_timeout_seconds));

    /// Return a connection's unreleased ingest-gate charge.  Exactly-once
    /// by construction: every path that hands the charge back zeroes it.
    const auto release_charge = [&](Connection& conn) {
        if (conn.gate_charge != 0 && config_.ingest_gate != nullptr) {
            config_.ingest_gate->release(conn.gate_charge);
        }
        conn.gate_charge = 0;
    };

    const auto close_connection = [&](int fd) {
        if (const auto it = connections.find(fd); it != connections.end()) {
            release_charge(it->second);
            connections.erase(it);
            metrics.active.sub(1);
        }
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
    };

    /// Refuse a request whose body may still be in flight (413/429/411/
    /// 501): best-effort answer, FIN our side, then linger draining the
    /// peer's bytes so the error page survives its send queue — the same
    /// mechanism the 503 admission path uses.
    const auto reject_linger = [&](Connection& conn, const HttpResponse& page) {
        release_charge(conn);
        const std::string bytes = serialize_response(page, false);
        const ssize_t sent =
            ::send(conn.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (sent > 0) {
            bytes_sent_.fetch_add(static_cast<std::uint64_t>(sent),
                                  std::memory_order_relaxed);
            metrics.bytes_sent.increment(static_cast<std::uint64_t>(sent));
        }
        ::shutdown(conn.fd, SHUT_WR);
        metrics.responses.increment();
        const int fd = conn.fd;
        discarding.emplace(fd, Clock::now() + request_timeout);
        connections.erase(fd);
        metrics.active.sub(1);
    };

    /// Queue `bytes` on the connection and opportunistically flush; true
    /// when fully written (caller closes), false when EPOLLOUT is armed.
    const auto send_response = [&](Connection& conn, std::string bytes) {
        conn.out = std::move(bytes);
        conn.out_written = 0;
        conn.writing = true;
        conn.in.clear();
        while (conn.out_written < conn.out.size()) {
            const ssize_t n =
                ::send(conn.fd, conn.out.data() + conn.out_written,
                       conn.out.size() - conn.out_written, MSG_NOSIGNAL);
            if (n > 0) {
                conn.out_written += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                epoll_event event{};
                event.events = EPOLLOUT;
                event.data.fd = conn.fd;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
                return false;
            }
            return true;  // peer gone; caller closes
        }
        return true;
    };

    const auto finish_response = [&](Connection& conn) {
        bytes_sent_.fetch_add(conn.out_written, std::memory_order_relaxed);
        metrics.bytes_sent.increment(conn.out_written);
        metrics.responses.increment();
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (conn.dispatched) {
            metrics.request_seconds.observe(
                std::chrono::duration<double>(Clock::now() - conn.parsed_at)
                    .count());
        }
        close_connection(conn.fd);
    };

    /// Parse-and-dispatch as input arrives: headers exactly once, then
    /// the body admission decisions, then wait for the declared body,
    /// then dispatch.  May finish (and erase) the connection or move it
    /// to the discarding set; callers must re-find it afterwards.
    const auto advance_reading = [&](Connection& conn) {
        if (!conn.headers_done) {
            const std::size_t head_end = conn.in.find("\r\n\r\n");
            // The header byte bound applies whether or not the block
            // ever completes — a finished-but-huge header section is
            // just as rejected as a dribbling one.
            if (head_end == std::string::npos
                    ? conn.in.size() > config_.max_request_bytes
                    : head_end > config_.max_request_bytes) {
                malformed_.fetch_add(1, std::memory_order_relaxed);
                metrics.malformed.increment();
                if (send_response(
                        conn, serialize_response(error_page(431, {}), false))) {
                    finish_response(conn);
                }
                return;
            }
            if (head_end == std::string::npos) return;  // keep reading
            HttpRequest request;
            const ParseResult parsed = parse_request(conn.in, request);
            if (parsed == ParseResult::kIncomplete) return;
            if (parsed != ParseResult::kOk) {
                malformed_.fetch_add(1, std::memory_order_relaxed);
                metrics.malformed.increment();
                const int status = parsed == ParseResult::kMalformed ? 400 : 405;
                if (send_response(
                        conn,
                        serialize_response(error_page(status, {}), false))) {
                    finish_response(conn);
                }
                return;
            }
            conn.request = std::move(request);
            conn.headers_done = true;
            conn.body_start = head_end + 4;
            conn.body_length = 0;

            const auto content_length = conn.request.header("Content-Length");
            if (conn.request.method == "POST") {
                // Body admission runs before a single body byte is
                // required, so refusals (411/501/400/413/429) answer
                // while the peer may still be sending: linger-drain.
                if (conn.request.header("Transfer-Encoding")) {
                    malformed_.fetch_add(1, std::memory_order_relaxed);
                    metrics.malformed.increment();
                    reject_linger(conn,
                                  error_page(501, "Transfer-Encoding"));
                    return;
                }
                if (!content_length) {
                    malformed_.fetch_add(1, std::memory_order_relaxed);
                    metrics.malformed.increment();
                    reject_linger(conn, error_page(411, {}));
                    return;
                }
                bool digits = !content_length->empty() &&
                              content_length->size() <= 18;
                for (const char c : *content_length) {
                    if (c < '0' || c > '9') digits = false;
                }
                if (!digits) {
                    malformed_.fetch_add(1, std::memory_order_relaxed);
                    metrics.malformed.increment();
                    reject_linger(conn,
                                  error_page(400, "bad Content-Length"));
                    return;
                }
                const std::size_t declared = static_cast<std::size_t>(
                    std::strtoull(content_length->c_str(), nullptr, 10));
                if (declared > config_.max_body_bytes) {
                    metrics.oversized.increment();
                    reject_linger(conn, error_page(413, {}));
                    return;
                }
                conn.body_length = declared;
                if (config_.ingest_gate != nullptr) {
                    const std::size_t estimate =
                        IngestGate::estimate_records(conn.body_length);
                    if (!config_.ingest_gate->try_admit(estimate)) {
                        metrics.shed.increment();
                        HttpResponse page =
                            error_page(429, "ingest budget exhausted");
                        page.extra_headers.emplace_back(
                            "Retry-After",
                            std::to_string(
                                config_.ingest_gate->retry_after_seconds()));
                        reject_linger(conn, page);
                        return;
                    }
                    conn.gate_charge = estimate;
                }
            } else if (content_length && *content_length != "0") {
                malformed_.fetch_add(1, std::memory_order_relaxed);
                metrics.malformed.increment();
                reject_linger(conn, error_page(400, "unexpected request body"));
                return;
            }
        }
        if (conn.in.size() < conn.body_start + conn.body_length) {
            return;  // keep reading the body
        }
        conn.request.body.assign(conn.in, conn.body_start, conn.body_length);
        conn.parsed_at = Clock::now();
        conn.dispatched = true;
        conn.deadline = conn.parsed_at + request_timeout;
        metrics.requests.increment();
        HttpResponse response;
        try {
            response = handler_(conn.request);
        } catch (const std::exception& error) {
            response = error_page(500, error.what());
        } catch (...) {
            response = error_page(500, {});
        }
        // Dispatched: the request's records are the handler's (and the
        // store's) problem now, not pending load — return the charge.
        release_charge(conn);
        if (send_response(conn,
                          serialize_response(response,
                                             conn.request.method == "HEAD"))) {
            finish_response(conn);
        }
    };

    epoll_event events[64];
    while (true) {
        if (stop_requested_.load(std::memory_order_acquire) && !draining) {
            draining = true;
            drain_deadline =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       config_.drain_timeout_seconds));
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        }
        if (draining && connections.empty() && discarding.empty()) break;

        // Wait until the next connection (or drain) deadline.
        const Clock::time_point now = Clock::now();
        Clock::time_point next = now + std::chrono::seconds{1};
        for (const auto& [fd, conn] : connections) {
            if (conn.deadline < next) next = conn.deadline;
        }
        for (const auto& [fd, deadline] : discarding) {
            if (deadline < next) next = deadline;
        }
        if (draining && drain_deadline < next) next = drain_deadline;
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
                .count();
        const int timeout_ms =
            wait_ms < 0 ? 0 : static_cast<int>(wait_ms > 1000 ? 1000 : wait_ms);
        const int ready = ::epoll_wait(
            epoll_fd_, events, static_cast<int>(std::size(events)),
            connections.empty() && discarding.empty() && !draining
                ? -1
                : timeout_ms);
        if (ready < 0 && errno != EINTR) break;

        for (int i = 0; i < (ready < 0 ? 0 : ready); ++i) {
            const int fd = events[i].data.fd;
            if (fd == wake_fd_) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const ssize_t n =
                    ::read(wake_fd_, &drained, sizeof drained);
                const std::uint64_t sent_ns =
                    ping_sent_ns_.exchange(0, std::memory_order_acq_rel);
                if (sent_ns != 0) {
                    const std::uint64_t now_ns = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count());
                    ping_lag_ns_.store(
                        now_ns >= sent_ns
                            ? static_cast<std::int64_t>(now_ns - sent_ns)
                            : 0,
                        std::memory_order_release);
                }
                continue;
            }
            if (fd == listen_fd_) {
                while (!draining) {
                    const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
                    if (client < 0) {
                        if (errno == EINTR) continue;
                        break;  // EAGAIN or transient accept failure
                    }
                    metrics.accepted.increment();
                    if (connections.size() >= config_.max_connections) {
                        // Admission control: the scraper sees an explicit
                        // 503 instead of an unbounded queue.  Best-effort
                        // write — the canned page fits any socket buffer —
                        // then a lingering close (FIN now, reap once the
                        // peer's request bytes are drained or on deadline).
                        const std::string page =
                            serialize_response(error_page(503, {}), false);
                        [[maybe_unused]] const ssize_t sent = ::send(
                            client, page.data(), page.size(), MSG_NOSIGNAL);
                        ::shutdown(client, SHUT_WR);
                        epoll_event reject_event{};
                        reject_event.events = EPOLLIN;
                        reject_event.data.fd = client;
                        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client,
                                        &reject_event) == 0) {
                            discarding.emplace(client,
                                               Clock::now() + request_timeout);
                        } else {
                            ::close(client);
                        }
                        rejected_.fetch_add(1, std::memory_order_relaxed);
                        metrics.rejected.increment();
                        metrics.responses.increment();
                        continue;
                    }
                    const int one = 1;
                    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one,
                                 sizeof one);
                    epoll_event event{};
                    event.events = EPOLLIN;
                    event.data.fd = client;
                    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &event);
                    Connection conn;
                    conn.fd = client;
                    conn.deadline = Clock::now() + request_timeout;
                    connections.emplace(client, std::move(conn));
                    metrics.active.add(1);
                }
                continue;
            }
            if (const auto linger = discarding.find(fd);
                linger != discarding.end()) {
                char sink[1024];
                ssize_t n;
                while ((n = ::recv(fd, sink, sizeof sink, 0)) > 0) {}
                const bool gone =
                    n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) ||
                    (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
                if (gone) {
                    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
                    ::close(fd);
                    discarding.erase(linger);
                }
                continue;
            }
            const auto it = connections.find(fd);
            if (it == connections.end()) continue;
            Connection& conn = it->second;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
                close_connection(fd);
                continue;
            }
            if (!conn.writing && (events[i].events & EPOLLIN) != 0) {
                bool peer_closed = false;
                char buffer[4096];
                for (;;) {
                    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
                    if (n > 0) {
                        conn.in.append(buffer, static_cast<std::size_t>(n));
                        // Absolute buffering bound: headers + the
                        // largest admissible body, with framing slack.
                        if (conn.in.size() > config_.max_request_bytes +
                                                 config_.max_body_bytes + 8) {
                            break;
                        }
                        continue;
                    }
                    if (n == 0) peer_closed = true;
                    break;  // EAGAIN, error, or orderly close
                }
                advance_reading(conn);
                // advance_reading may have finished (and erased) the
                // connection or moved it to `discarding`; re-find before
                // touching it again.
                const auto again = connections.find(fd);
                if (again != connections.end() && peer_closed &&
                    !again->second.writing) {
                    // EOF before a complete request.  A peer that sent
                    // nothing gets a silent close (port probes); one
                    // that sent a partial request gets a best-effort 400
                    // — it half-closed, so it can still read the page.
                    Connection& dying = again->second;
                    if (!dying.in.empty() || dying.headers_done) {
                        malformed_.fetch_add(1, std::memory_order_relaxed);
                        metrics.malformed.increment();
                        const std::string page = serialize_response(
                            error_page(400, "incomplete request"), false);
                        [[maybe_unused]] const ssize_t sent = ::send(
                            fd, page.data(), page.size(), MSG_NOSIGNAL);
                        metrics.responses.increment();
                    }
                    close_connection(fd);
                }
                continue;
            }
            if (conn.writing && (events[i].events & EPOLLOUT) != 0) {
                bool done = false;
                while (conn.out_written < conn.out.size()) {
                    const ssize_t n =
                        ::send(fd, conn.out.data() + conn.out_written,
                               conn.out.size() - conn.out_written, MSG_NOSIGNAL);
                    if (n > 0) {
                        conn.out_written += static_cast<std::size_t>(n);
                        continue;
                    }
                    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                    done = true;  // peer gone
                    break;
                }
                if (conn.out_written >= conn.out.size()) done = true;
                if (done) finish_response(conn);
            }
        }

        // Deadline sweep: slow-loris readers draw a best-effort 408;
        // stuck writers are closed outright.
        const Clock::time_point sweep_now = Clock::now();
        std::vector<int> expired;
        for (const auto& [fd, conn] : connections) {
            if (conn.deadline <= sweep_now) expired.push_back(fd);
        }
        for (const int fd : expired) {
            Connection& conn = connections.at(fd);
            if (!conn.writing) {
                timeouts_.fetch_add(1, std::memory_order_relaxed);
                metrics.timeouts.increment();
                const std::string page =
                    serialize_response(error_page(408, {}), false);
                [[maybe_unused]] const ssize_t sent =
                    ::send(fd, page.data(), page.size(), MSG_NOSIGNAL);
                metrics.responses.increment();
            }
            close_connection(fd);
        }
        for (auto linger = discarding.begin(); linger != discarding.end();) {
            if (linger->second <= sweep_now) {
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, linger->first, nullptr);
                ::close(linger->first);
                linger = discarding.erase(linger);
            } else {
                ++linger;
            }
        }
        if (draining && drain_deadline <= sweep_now) {
            while (!connections.empty()) {
                close_connection(connections.begin()->first);
            }
            break;
        }
    }

    // Force-close anything left (loop exits only when drained or past
    // the drain deadline, so this is normally a no-op).  close_connection
    // also hands unreleased ingest-gate charges back.
    while (!connections.empty()) {
        close_connection(connections.begin()->first);
    }
    for (const auto& [fd, deadline] : discarding) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
    }
    discarding.clear();
}

}  // namespace hpr::net
