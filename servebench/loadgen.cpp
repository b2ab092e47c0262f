// Load generator of the serving benchmark.  One process drives the live
// daemon over loopback HTTP, then checks its answers against a
// direct-call twin and, for the traced run, replays the same requests
// through the library's public functions with a timer around each call.
//
//   servebench_loadgen --workload NAME --seed N --seconds S --port P
//                      --daemon-pid PID --trace 0|1 --out DIR
//                      [--cpus MAIN,CLIENT0,CLIENT1]
//
// --cpus pins, while the load runs, the main thread (which runs the
// open-loop lane) and each closed-loop client to one CPU; the preload
// runs on the first client's CPU.
//
// Phases: 0 = preload (sequential), 1 = warm-up (the measured load for
// kWarmupSeconds, not reported), 2 = measured (S seconds).  Every phase
// is cut into segments, and the daemon's CPU is read around each: the
// preload is one segment, the others last kSegmentSeconds, or half that
// for a workload with an interleaved load, whose segments alternate with
// its own.  With --trace 1, SIGUSR1 switches the daemon's span wrapper
// on just before phase 2 (it then alternates traced and untraced
// slices), and the replay lane runs after it.  Everything the run
// measured is written to DIR as CSV/JSON for run.py:
//   samples.csv   one row per request: id,kind,phase,segment,lane,status,
//                 due_ns,start_ns,end_ns,records (CLOCK_MONOTONIC)
//   segments.csv  segment,phase,interleaved,start_ns,daemon_cpu_ns
//   metrics_<phase>_{before,after}.json   the daemon's /metrics.json
//   replay.csv    (--trace 1) per traced request, the replayed call times
//   checks.json   correctness and validity checks, the generator's thread
//                 count, the most open-loop connections in flight and the
//                 daemon's peak memory at the workload's mark
//
// Workloads (README.md gives the reasons):
//   ingest_steady  closed loop, 2 clients, 1000-record batches over 200
//                  long-lived servers; open-loop /assess probe at 100/s
//   assess_read    closed loop, 2 clients, Zipf /assess over 100 servers
//                  with >= 10k-record histories, its segments
//                  interleaved with ingest_steady's load (no probe) on
//                  200 other servers, where its ingest figures come from

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "config.h"
#include "core/online.h"
#include "net/http_client.h"
#include "net/ingest.h"
#include "repsys/store.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

std::int64_t mono_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::uint32_t kWindow = 10;  // transactions per screening window
constexpr double kWarmupSeconds = 3.0;
constexpr double kSegmentSeconds = 1.0;

// ---------------------------------------------------------------------------
// Requests and samples

enum class Kind : char { kIngest = 'i', kAssess = 'a' };

struct Request {
    std::uint64_t id = 0;
    Kind kind = Kind::kIngest;
    std::uint32_t records = 0;       ///< ingest: records in the body
    repsys::EntityId server = 0;     ///< assess: queried server
    std::string wire;                ///< the full HTTP request
    std::size_t body_offset = 0;     ///< ingest: first body byte in `wire`
    std::int64_t due_ns = 0;         ///< open loop: offset from segment start

    [[nodiscard]] std::string body() const { return wire.substr(body_offset); }
};

std::atomic<std::uint64_t> g_next_id{1};

void append_number(std::string& out, std::uint64_t value) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    out.append(buffer, result.ptr);
}

Request make_ingest(const std::string& body, std::uint32_t records) {
    Request request;
    request.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    request.kind = Kind::kIngest;
    request.records = records;
    request.wire = "POST /ingest HTTP/1.1\r\nHost: servebench\r\nX-Request-Id: ";
    append_number(request.wire, request.id);
    request.wire += "\r\nContent-Length: ";
    append_number(request.wire, body.size());
    request.wire += "\r\n\r\n";
    request.body_offset = request.wire.size();
    request.wire += body;
    return request;
}

Request make_assess(repsys::EntityId server) {
    Request request;
    request.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    request.kind = Kind::kAssess;
    request.server = server;
    request.wire = "GET /assess?server=";
    append_number(request.wire, server);
    request.wire += " HTTP/1.1\r\nHost: servebench\r\nX-Request-Id: ";
    append_number(request.wire, request.id);
    request.wire += "\r\n\r\n";
    return request;
}

struct Sample {
    const Request* request = nullptr;
    int phase = 0;
    std::size_t segment = 0;
    int lane = 0;
    int status = -1;  ///< HTTP status; -1 = transport failure
    std::int64_t due_ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// One sending thread's requests (stable addresses) and outcomes.
struct Lane {
    std::deque<Request> requests;
    std::vector<Sample> samples;
};

int parse_status(std::string_view response) {
    if (response.size() < 12 || response.substr(0, 9) != "HTTP/1.1 ") return -1;
    int status = 0;
    const auto result =
        std::from_chars(response.data() + 9, response.data() + 12, status);
    return result.ec == std::errc{} ? status : -1;
}

// ---------------------------------------------------------------------------
// Blocking exchange (closed-loop clients and the preload)

int connect_loopback(std::uint16_t port, bool nonblocking) {
    const int fd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
                            0);
    if (fd < 0) return -1;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0 &&
        !(nonblocking && errno == EINPROGRESS)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Send one request and read to EOF (the server closes every connection).
int exchange(std::uint16_t port, const std::string& wire) {
    const int fd = connect_loopback(port, false);
    if (fd < 0) return -1;
    timeval timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    std::size_t written = 0;
    while (written < wire.size()) {
        const ssize_t sent = ::send(fd, wire.data() + written, wire.size() - written,
                                    MSG_NOSIGNAL);
        if (sent <= 0) break;
        written += static_cast<std::size_t>(sent);
    }
    char head[16];
    std::size_t head_size = 0;
    char buffer[16384];
    ssize_t n = 0;
    bool failed = false;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) != 0) {
        if (n < 0) {
            failed = true;
            break;
        }
        const std::size_t take =
            std::min(sizeof head - head_size, static_cast<std::size_t>(n));
        std::memcpy(head + head_size, buffer, take);
        head_size += take;
    }
    ::close(fd);
    if (failed || written < wire.size()) return -1;
    return parse_status({head, head_size});
}

// ---------------------------------------------------------------------------
// Open-loop engine: sends each scheduled request at its due time on its
// own non-blocking connection, whatever is still in flight.

class OpenLoop {
public:
    explicit OpenLoop(std::uint16_t port) : port_(port), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}
    ~OpenLoop() { ::close(epoll_fd_); }
    OpenLoop(const OpenLoop&) = delete;
    OpenLoop& operator=(const OpenLoop&) = delete;

    /// Run `schedule` (due offsets relative to `t0`) to completion.
    /// Returns the most connections that were in flight at once.
    std::size_t run(Lane& lane, int phase, std::size_t segment,
                    const std::vector<const Request*>& schedule, std::int64_t t0) {
        std::size_t next = 0;
        std::size_t max_inflight = 0;
        epoll_event events[64];
        while (next < schedule.size() || !flights_.empty()) {
            std::int64_t now = mono_ns();
            while (next < schedule.size() && t0 + schedule[next]->due_ns <= now) {
                launch(lane, phase, segment, *schedule[next], t0 + schedule[next]->due_ns,
                       now);
                max_inflight = std::max(max_inflight, flights_.size());
                ++next;
                now = mono_ns();
            }
            std::int64_t wait = 50'000'000;
            if (next < schedule.size()) wait = std::min(wait, t0 + schedule[next]->due_ns - now);
            if (wait < 0) wait = 0;
            const timespec timeout{static_cast<time_t>(wait / kSecond),
                                   static_cast<long>(wait % kSecond)};
            const int ready = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
            for (int i = 0; i < ready; ++i) {
                service(lane, events[i].data.fd, events[i].events);
            }
            expire(lane, mono_ns());
        }
        return max_inflight;
    }

private:
    struct Flight {
        Sample sample;
        std::size_t sent = 0;
        bool writing = true;
        char head[16] = {};
        std::size_t head_size = 0;
    };

    void launch(Lane& lane, int phase, std::size_t segment, const Request& request,
                std::int64_t due, std::int64_t now) {
        Sample sample;
        sample.request = &request;
        sample.phase = phase;
        sample.segment = segment;
        sample.lane = 0;
        sample.due_ns = due;
        sample.start_ns = now;
        const int fd = connect_loopback(port_, true);
        if (fd < 0) {
            sample.end_ns = mono_ns();
            lane.samples.push_back(sample);
            return;
        }
        epoll_event event{};
        event.events = EPOLLOUT | EPOLLIN | EPOLLRDHUP;
        event.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
        Flight& flight = flights_[fd];
        flight = Flight{};
        flight.sample = sample;
    }

    void service(Lane& lane, int fd, std::uint32_t events) {
        const auto it = flights_.find(fd);
        if (it == flights_.end()) return;
        Flight& flight = it->second;
        const std::string& wire = flight.sample.request->wire;
        if (flight.writing && (events & EPOLLOUT) != 0) {
            while (flight.sent < wire.size()) {
                const ssize_t sent = ::send(fd, wire.data() + flight.sent,
                                            wire.size() - flight.sent, MSG_NOSIGNAL);
                if (sent < 0) {
                    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                    finish(lane, fd, false);
                    return;
                }
                flight.sent += static_cast<std::size_t>(sent);
            }
            if (flight.sent == wire.size()) {
                flight.writing = false;
                epoll_event event{};
                event.events = EPOLLIN | EPOLLRDHUP;
                event.data.fd = fd;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
            }
        }
        if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) == 0) return;
        char buffer[16384];
        for (;;) {
            const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
            if (n == 0) {
                finish(lane, fd, true);
                return;
            }
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                finish(lane, fd, false);
                return;
            }
            const std::size_t take = std::min(sizeof flight.head - flight.head_size,
                                              static_cast<std::size_t>(n));
            std::memcpy(flight.head + flight.head_size, buffer, take);
            flight.head_size += take;
        }
    }

    void finish(Lane& lane, int fd, bool complete) {
        const auto it = flights_.find(fd);
        Flight& flight = it->second;
        flight.sample.end_ns = mono_ns();
        const bool sent_all = flight.sent == flight.sample.request->wire.size();
        flight.sample.status = complete && sent_all
                                   ? parse_status({flight.head, flight.head_size})
                                   : -1;
        lane.samples.push_back(flight.sample);
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        flights_.erase(it);
    }

    /// A response that has not arrived within 30 s is a failure.
    void expire(Lane& lane, std::int64_t now) {
        std::vector<int> stale;
        for (const auto& [fd, flight] : flights_) {
            if (now - flight.sample.start_ns > 30 * kSecond) stale.push_back(fd);
        }
        for (const int fd : stale) finish(lane, fd, false);
    }

    std::uint16_t port_;
    int epoll_fd_;
    std::unordered_map<int, Flight> flights_;
};

// ---------------------------------------------------------------------------
// Server populations

/// One simulated server.  Honest servers are Bernoulli(p); an attacker
/// serves well (p = 0.99) throughout, but from `flip_at` of its own
/// transactions on, one window in every four is all bad.  Every
/// suffix of >= 4 windows then keeps p̂ above 0.55, inside the warm
/// calibration range, while the window-count distribution is far from
/// binomial, so the multi-test flags it.
struct Server {
    repsys::EntityId id = 0;
    double p = 0.9;
    bool attacker = false;
    std::size_t flip_at = 0;
    std::size_t count = 0;  ///< transactions generated so far

    /// Append the next transaction as an ingest line.
    void append_next(std::string& body, stats::Rng& rng) {
        const std::size_t index = count++;
        bool good = false;
        good = rng.bernoulli(p);
        if (attacker && index >= flip_at && (index / kWindow) % 4 == 3) good = false;
        append_number(body, id);
        body += ' ';
        append_number(body, index + 1);  // per-server timestamps are its index
        body += good ? " 1\n" : " 0\n";
    }

    [[nodiscard]] bool flipped_long_ago() const {
        return attacker && count >= flip_at + 20 * kWindow;
    }
};

/// Honest p spread evenly over [p_lo, 0.99] along `index`, the same for
/// every seed (p sets how often the screener's ladder stops early and how
/// well the trust scan's branches predict, so a seeded p would move the
/// cost of a run with the seed).
double spread_p(double p_lo, std::size_t index) {
    return p_lo + (0.99 - p_lo) * std::fmod(0.618034 * static_cast<double>(index), 1.0);
}

/// A stream whose p̂ over its newest 3-4 windows drops below 0.55 leaves
/// the warm calibration range; p_lo keeps that below one chance in ~10^4
/// per run on workloads whose measured phase screens (README.md,
/// "Calibration coverage").  The seed picks which servers attack.
std::vector<Server> make_population(stats::Rng& rng, repsys::EntityId first_id,
                                    std::size_t count, std::size_t attackers,
                                    double p_lo) {
    std::vector<Server> servers(count);
    for (std::size_t i = 0; i < count; ++i) {
        servers[i].id = first_id + static_cast<repsys::EntityId>(i);
        servers[i].p = spread_p(p_lo, i);
    }
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    for (std::size_t i = count; i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    for (std::size_t a = 0; a < attackers && a < count; ++a) {
        servers[order[a]].attacker = true;
        servers[order[a]].p = 0.99;
    }
    return servers;
}

/// Interleave whole histories into ingest batches of at most
/// `batch_records`, round-robin across servers, `lengths[i]` records for
/// server i.
std::vector<Request> preload_batches(std::vector<Server*>& servers,
                                     const std::vector<std::size_t>& lengths,
                                     std::size_t batch_records, stats::Rng& rng) {
    std::vector<Request> batches;
    std::string body;
    std::uint32_t records = 0;
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t i = 0; i < servers.size(); ++i) {
            if (servers[i]->count >= lengths[i]) continue;
            more = true;
            servers[i]->append_next(body, rng);
            if (++records == batch_records) {
                batches.push_back(make_ingest(body, records));
                body.clear();
                records = 0;
            }
        }
    }
    if (records != 0) batches.push_back(make_ingest(body, records));
    return batches;
}

/// Arrival offsets of an open-loop lane, exactly rate * seconds of them
/// so the offered load is the same for every seed, evenly spaced after a
/// random phase.
std::vector<std::int64_t> arrivals(stats::Rng& rng, double rate, double seconds) {
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    std::vector<std::int64_t> due(count);
    const double phase = rng.uniform();
    for (std::size_t i = 0; i < count; ++i) {
        due[i] = static_cast<std::int64_t>((static_cast<double>(i) + phase) / rate * 1e9);
    }
    return due;
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
public:
    virtual ~Workload() = default;

    /// Untimed requests sent one at a time before the first phase.
    virtual std::vector<Request> preload() = 0;

    /// Closed-loop client threads, and the next request of client `c`.
    [[nodiscard]] virtual std::size_t clients() const = 0;
    virtual Request next(std::size_t client) = 0;

    /// Open-loop schedule of one segment (due offsets in `due_ns`).
    virtual std::vector<Request> open_schedule(double seconds) = 0;

    /// Servers whose /assess answers are checked against the twin, and
    /// those among them that must be flagged.
    [[nodiscard]] virtual std::vector<repsys::EntityId> sampled() const = 0;
    [[nodiscard]] virtual std::vector<repsys::EntityId> must_flag() const = 0;

    /// Records acknowledged after the preload at which the daemon's peak
    /// memory is read, so that it describes a fixed data volume whatever
    /// the throughput; 0 = right after the preload.
    [[nodiscard]] virtual std::uint64_t rss_mark_records() const = 0;

    /// For a workload whose own load writes nothing, the ingest load whose
    /// segments alternate with its own (with as many clients), where its
    /// ingest figures come from; nullptr = none.
    virtual Workload* interleaved() { return nullptr; }
};

/// Closed-loop ingest into 200 long-lived streams, each preloaded past
/// the 64-window horizon.  Client c owns the servers with index % 2 == c,
/// so each server's records arrive in order from one sender.  Servers
/// differ in preload length (70-139 windows) and traffic share (weights
/// 0.5-1.5), so their history vectors reach each capacity doubling at
/// different times instead of all reallocating in the same second.
/// Server ids start at `first_id`; the probe sends `probe_rate` /assess
/// per second.
class IngestSteady final : public Workload {
public:
    explicit IngestSteady(std::uint64_t seed, repsys::EntityId first_id = 1,
                          double probe_rate = 100.0)
        : rng_(seed), probe_rate_(probe_rate) {
        servers_ = make_population(rng_, first_id, 200, 10, 0.90);
        cdf_.resize(2);
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            Server& s = servers_[i];
            lengths_.push_back((70 + (i * 37) % 70) * kWindow);
            if (s.attacker) s.flip_at = lengths_.back() + (50 + rng_.uniform_int(250)) * kWindow;
            const double weight = 0.5 + std::fmod(0.618034 * static_cast<double>(i) + 0.5, 1.0);
            std::vector<double>& cdf = cdf_[i % 2];
            cdf.push_back((cdf.empty() ? 0.0 : cdf.back()) + weight);
        }
        for (std::vector<double>& cdf : cdf_) {
            for (double& c : cdf) c /= cdf.back();
        }
        for (std::size_t c = 0; c < 2; ++c) client_rng_.emplace_back(seed * 31 + c + 1);
    }

    std::vector<Request> preload() override {
        std::vector<Server*> all;
        for (Server& s : servers_) all.push_back(&s);
        return preload_batches(all, lengths_, 1000, rng_);
    }

    std::size_t clients() const override { return 2; }

    Request next(std::size_t client) override {
        stats::Rng& rng = client_rng_[client];
        const std::vector<double>& cdf = cdf_[client];
        std::string body;
        body.reserve(1000 * 14);
        for (std::size_t i = 0; i < 1000; ++i) {
            const auto k = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) - cdf.begin());
            servers_[2 * std::min(k, cdf.size() - 1) + client].append_next(body, rng);
        }
        return make_ingest(body, 1000);
    }

    std::vector<Request> open_schedule(double seconds) override {
        std::vector<Request> schedule;
        for (const std::int64_t due : arrivals(rng_, probe_rate_, seconds)) {
            Request r = make_assess(servers_[rng_.uniform_int(servers_.size())].id);
            r.due_ns = due;
            schedule.push_back(std::move(r));
        }
        return schedule;
    }

    std::vector<repsys::EntityId> sampled() const override {
        std::vector<repsys::EntityId> ids;
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            if (servers_[i].attacker || i % 20 == 0) ids.push_back(servers_[i].id);
        }
        return ids;
    }

    std::vector<repsys::EntityId> must_flag() const override {
        std::vector<repsys::EntityId> ids;
        for (const Server& s : servers_) {
            if (s.flipped_long_ago()) ids.push_back(s.id);
        }
        return ids;
    }

    /// About 4.5 s after the preload at this workload's rate on a 4-vCPU
    /// host, so a daemon several times slower still reaches it.
    std::uint64_t rss_mark_records() const override { return 2'000'000; }

private:
    stats::Rng rng_;
    double probe_rate_;
    std::vector<stats::Rng> client_rng_;
    std::vector<Server> servers_;
    std::vector<std::size_t> lengths_;
    std::vector<std::vector<double>> cdf_;  ///< per client, over its servers
};

/// Closed-loop Zipf reads over 100 servers with 10k-10.5k-record
/// histories.  What sets the cost of a read is pinned to the popularity
/// rank, whatever the seed: the 10 attackers sit at ranks 3, 13, ..., 93
/// (so the share of reads taking the suspicious shortcut is fixed), and
/// honest p, which sets how well the trust scan's branches predict,
/// follows the rank.  The attackers flipped halfway through their
/// preloaded history.
class AssessRead final : public Workload {
public:
    explicit AssessRead(std::uint64_t seed) : rng_(seed), ingest_(seed + 1, 1001, 0.0) {
        servers_ = make_population(rng_, 1, 100, 0, 0.85);
        // Zipf(1.1) over popularity ranks; rank r maps to a shuffled server.
        rank_.resize(servers_.size());
        for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = i;
        for (std::size_t i = rank_.size(); i > 1; --i) {
            std::swap(rank_[i - 1], rank_[rng_.uniform_int(i)]);
        }
        for (std::size_t r = 0; r < rank_.size(); ++r) {
            Server& s = servers_[rank_[r]];
            s.attacker = r % 10 == 2;
            s.p = s.attacker ? 0.99 : spread_p(0.85, r);
        }
        for (Server& s : servers_) {
            lengths_.push_back((1000 + rng_.uniform_int(50)) * kWindow);
            if (s.attacker) s.flip_at = lengths_.back() / 2 / kWindow * kWindow;
        }
        double total = 0.0;
        for (std::size_t r = 0; r < rank_.size(); ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) c /= total;
        for (std::size_t c = 0; c < 2; ++c) client_rng_.emplace_back(seed * 31 + c + 1);
    }

    /// The read population's histories, then the interleaved load's.
    std::vector<Request> preload() override {
        std::vector<Server*> all;
        for (Server& s : servers_) all.push_back(&s);
        std::vector<Request> batches = preload_batches(all, lengths_, 1000, rng_);
        for (Request& r : ingest_.preload()) batches.push_back(std::move(r));
        return batches;
    }

    std::size_t clients() const override { return 2; }

    Request next(std::size_t client) override {
        const double u = client_rng_[client].uniform();
        const std::size_t r = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return make_assess(servers_[rank_[std::min(r, rank_.size() - 1)]].id);
    }

    std::vector<Request> open_schedule(double) override { return {}; }

    std::vector<repsys::EntityId> sampled() const override {
        std::vector<repsys::EntityId> ids;
        for (std::size_t i = 0; i < servers_.size(); ++i) {
            if (servers_[i].attacker || i % 10 == 0) ids.push_back(servers_[i].id);
        }
        const std::vector<repsys::EntityId> other = ingest_.sampled();
        ids.insert(ids.end(), other.begin(), other.end());
        return ids;
    }

    std::vector<repsys::EntityId> must_flag() const override {
        std::vector<repsys::EntityId> ids = ingest_.must_flag();
        for (const Server& s : servers_) {
            if (s.attacker) ids.push_back(s.id);
        }
        return ids;
    }

    /// The interleaved load writes at the daemon's speed, so the data
    /// volume is fixed only right after the preload.
    std::uint64_t rss_mark_records() const override { return 0; }

    /// ingest_steady's load on its own 200 servers (ids from 1001),
    /// without the probe, so that every /assess is a read of this load.
    Workload* interleaved() override { return &ingest_; }

private:
    stats::Rng rng_;
    IngestSteady ingest_;
    std::vector<stats::Rng> client_rng_;
    std::vector<Server> servers_;
    std::vector<std::size_t> lengths_;
    std::vector<std::size_t> rank_;
    std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Daemon-side readouts

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::uint16_t port = 0;
    pid_t daemon_pid = 0;
    bool trace = false;
    std::string out;
    std::vector<int> cpus;  ///< main thread, then closed-loop clients
};

/// Pin the calling thread to `cpus[index]`, if the plan names one.
void pin_thread(const std::vector<int>& cpus, std::size_t index) {
    if (index >= cpus.size()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[index], &set);
    (void)::sched_setaffinity(0, sizeof set, &set);
}

std::int64_t daemon_cpu_ns(pid_t pid) {
    clockid_t clock{};
    if (::clock_getcpuclockid(pid, &clock) != 0) return -1;
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0) return -1;
    return static_cast<std::int64_t>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

/// The daemon's peak resident memory (VmHWM) in KiB; -1 if unreadable.
long long peak_rss_kb(pid_t pid) {
    std::FILE* status = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(), "r");
    if (status == nullptr) return -1;
    long long kb = -1;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::atoll(line + 6);
            break;
        }
    }
    std::fclose(status);
    return kb;
}

std::string fetch(std::uint16_t port, const std::string& target) {
    const auto page = net::http_get("127.0.0.1", port, target, 30.0);
    return page && page->status == 200 ? page->body : std::string{};
}

/// Value of `key` in a "key value" / "key=value" text page; -1 if absent.
long long page_value(const std::string& page, const std::string& key) {
    for (const char sep : {' ', '='}) {
        const std::string needle = key + sep;
        std::size_t at = 0;
        while ((at = page.find(needle, at)) != std::string::npos) {
            if (at == 0 || page[at - 1] == '\n' || page[at - 1] == ' ') {
                return std::atoll(page.c_str() + at + needle.size());
            }
            at += needle.size();
        }
    }
    return -1;
}

bool write_file(const std::string& path, const std::string& text) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fwrite(text.data(), 1, text.size(), out);
    return std::fclose(out) == 0;
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

// ---------------------------------------------------------------------------
// The direct-call twin: same records, same per-server order, fresh
// instances; its /assess body must equal the daemon's.

std::vector<const Sample*> acknowledged_in_order(const std::vector<Lane>& lanes) {
    std::vector<const Sample*> ordered;
    for (const Lane& lane : lanes) {
        for (const Sample& s : lane.samples) {
            if (s.status == 200) ordered.push_back(&s);
        }
    }
    std::stable_sort(ordered.begin(), ordered.end(), [](const Sample* a, const Sample* b) {
        return a->end_ns < b->end_ns;
    });
    return ordered;
}

void twin_check(const std::vector<const Sample*>& ordered, const Workload& workload,
                std::uint16_t port, std::vector<Check>& checks) {
    const std::vector<repsys::EntityId> ids = workload.sampled();
    const std::set<repsys::EntityId> sampled(ids.begin(), ids.end());
    repsys::FeedbackStore store{servebench::kStoreShards};
    serve::BatchAssessor assessor =
        servebench::make_assessor(servebench::make_warm_calibrator());
    net::IngestService service{store, assessor};  // renders the twin's /assess page
    std::vector<repsys::Feedback> parsed;
    std::vector<repsys::Feedback> mine;
    std::string error;
    for (const Sample* s : ordered) {
        if (s->request->kind != Kind::kIngest) continue;
        if (!net::parse_ingest_body(s->request->body(), parsed, error)) {
            checks.push_back({"twin_verdicts", false, "unparsable acknowledged batch: " + error});
            return;
        }
        mine.clear();
        for (const repsys::Feedback& f : parsed) {
            if (sampled.count(f.server) != 0) mine.push_back(f);
        }
        if (mine.empty()) continue;
        store.ingest_batch(mine);
        for (const repsys::Feedback& f : mine) assessor.observe(f);
    }
    std::size_t mismatches = 0;
    std::string detail;
    std::map<repsys::EntityId, std::string> daemon_state;
    for (const repsys::EntityId id : ids) {
        const std::string daemon = fetch(port, "/assess?server=" + std::to_string(id));
        const std::string twin =
            service.assess_page({"/assess", "server=" + std::to_string(id)}).body;
        const auto at = daemon.find("stream_state ");
        daemon_state[id] = at == std::string::npos ? "" : daemon.substr(at + 13);
        if (daemon != twin) {
            if (mismatches++ == 0) detail = "server " + std::to_string(id) + ": daemon {" +
                                            daemon + "} twin {" + twin + "}";
        }
    }
    std::size_t unflagged = 0;
    for (const repsys::EntityId id : workload.must_flag()) {
        if (daemon_state.count(id) == 0 || daemon_state[id] != "suspicious\n") ++unflagged;
    }
    checks.push_back({"attackers_flagged", unflagged == 0,
                      std::to_string(workload.must_flag().size() - unflagged) + "/" +
                          std::to_string(workload.must_flag().size()) +
                          " planted attackers suspicious"});
    checks.push_back({"twin_verdicts", mismatches == 0,
                      std::to_string(ids.size() - mismatches) + "/" +
                          std::to_string(ids.size()) +
                          " sampled /assess bodies equal the twin's" +
                          (detail.empty() ? "" : "; first mismatch " + detail)});
}

// ---------------------------------------------------------------------------
// The replay lane (traced run): the same requests in commit order, timed
// call by call through the public functions.  /assess changes no state,
// so only the traced phase's are replayed, and at most about
// kReplayedAssesses of them, evenly spread.

constexpr std::size_t kReplayedAssesses = 20000;

std::string replay(const std::vector<const Sample*>& ordered, int traced_phase) {
    std::size_t traced_assesses = 0;
    for (const Sample* s : ordered) {
        traced_assesses += s->phase == traced_phase && s->request->kind == Kind::kAssess;
    }
    const std::size_t stride = traced_assesses / kReplayedAssesses + 1;
    std::size_t assesses = 0;
    repsys::FeedbackStore store{servebench::kStoreShards};
    serve::BatchAssessor assessor =
        servebench::make_assessor(servebench::make_warm_calibrator());
    net::IngestService service{store, assessor};
    const repsys::TrustFunction& trust = assessor.assessor().trust_function();
    std::unordered_map<repsys::EntityId, std::size_t> seen;
    std::string csv =
        "id,kind,records,parse_ns,ingest_ns,observe_ns,ladders,ladder_ns,assess_ns,"
        "page_ns,state,snapshot_ns,eval_ns\n";
    std::vector<repsys::Feedback> feedbacks;
    std::string error;
    for (const Sample* s : ordered) {
        if (s->phase > traced_phase) break;  // phases run one after another
        const Request& r = *s->request;
        if (r.kind == Kind::kAssess &&
            (s->phase != traced_phase || assesses++ % stride != 0)) {
            continue;
        }
        std::int64_t parse = 0, ingest = 0, observe = 0, ladder = 0, ladders = 0;
        std::int64_t assess = 0, page = 0, snapshot = 0, eval = 0;
        char state = '-';  // assess: c(lear), s(uspicious), i(nsufficient)
        if (r.kind == Kind::kIngest) {
            const std::string body = r.body();
            const std::int64_t t0 = mono_ns();
            (void)net::parse_ingest_body(body, feedbacks, error);
            const std::int64_t t1 = mono_ns();
            store.ingest_batch(feedbacks);
            const std::int64_t t2 = mono_ns();
            parse = t1 - t0;
            ingest = t2 - t1;
            for (const repsys::Feedback& f : feedbacks) {
                const std::int64_t a = mono_ns();
                assessor.observe(f);
                const std::int64_t b = mono_ns();
                observe += b - a;
                const std::size_t n = ++seen[f.server];
                if (n % kWindow == 0 && n >= 3 * kWindow) {
                    ladder += b - a;
                    ++ladders;
                }
            }
        } else {
            // The whole /assess page (assess, history_length,
            // stream_state, formatting), then assess() on its own.
            const std::int64_t t0 = mono_ns();
            const obs::IntrospectionPage rendered =
                service.assess_page({"/assess", "server=" + std::to_string(r.server)});
            const std::int64_t t1 = mono_ns();
            const auto result = assessor.assess(store, {r.server});
            const std::int64_t t2 = mono_ns();
            page = t1 - t0;
            assess = t2 - t1;
            state = core::to_string(assessor.stream_state(r.server))[0];
            const bool clear = state == 'c';
            (void)rendered;
            if (clear) {
                const std::int64_t t3 = mono_ns();
                const repsys::TransactionHistory history = store.history_snapshot(r.server);
                const std::int64_t t4 = mono_ns();
                const double value = trust.evaluate(history.view());
                const std::int64_t t5 = mono_ns();
                snapshot = t4 - t3;
                eval = t5 - t4;
                (void)value;
            }
            (void)result;
        }
        if (s->phase != traced_phase) continue;
        char row[256];
        std::snprintf(row, sizeof row,
                      "%llu,%c,%u,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%c,%lld,%lld\n",
                      static_cast<unsigned long long>(r.id), static_cast<char>(r.kind),
                      r.records, static_cast<long long>(parse),
                      static_cast<long long>(ingest), static_cast<long long>(observe),
                      static_cast<long long>(ladders), static_cast<long long>(ladder),
                      static_cast<long long>(assess), static_cast<long long>(page),
                      state, static_cast<long long>(snapshot),
                      static_cast<long long>(eval));
        csv += row;
    }
    return csv;
}

// ---------------------------------------------------------------------------
// Phases and segments

struct SegmentRecord {
    int phase = 0;
    bool interleaved = false;  ///< ran the workload's interleaved load
    std::int64_t start_ns = 0;
    std::int64_t cpu_ns = 0;  ///< daemon CPU over the segment
};

/// What a run records besides its samples.
struct Run {
    std::vector<SegmentRecord> segments;  ///< index = Sample::segment
    std::size_t max_inflight = 0;
    /// The daemon's peak memory, read by the client whose batch brings
    /// the records acknowledged after the preload to `rss_mark` (right
    /// after the preload when the mark is 0).
    std::uint64_t rss_mark = 0;
    std::atomic<std::uint64_t> acknowledged{0};
    std::atomic<long long> peak_rss_kb{-1};
};

/// Run `segments` segments of `seconds` each, every second one of the
/// workload's interleaved load if it has one: the closed-loop clients and
/// the open-loop lane send until the segment's deadline, and the next
/// segment starts when all have returned, so that the daemon's CPU over
/// a segment belongs to that segment's requests alone.
void run_phase(Workload& workload, std::vector<Lane>& lanes, int phase,
               std::size_t segments, double seconds, const Options& options, Run& run) {
    Workload* const other = workload.interleaved();
    const auto interleaved = [other](std::size_t k) { return other != nullptr && k % 2 == 1; };
    const auto load = [&](std::size_t k) -> Workload& {
        return interleaved(k) ? *other : workload;
    };
    const std::string tag = options.out + "/metrics_" + std::to_string(phase);
    write_file(tag + "_before.json", fetch(options.port, "/metrics.json"));
    cpu_set_t unpinned;
    CPU_ZERO(&unpinned);
    (void)::sched_getaffinity(0, sizeof unpinned, &unpinned);
    pin_thread(options.cpus, 0);

    // Written by this thread before the barrier that starts a segment and
    // read by the clients after it.
    std::int64_t deadline = 0;
    std::size_t segment = 0;
    std::barrier<> sync{static_cast<std::ptrdiff_t>(workload.clients() + 1)};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < workload.clients(); ++c) {
        clients.emplace_back([&, c] {
            pin_thread(options.cpus, c + 1);
            Lane& lane = lanes[c + 1];
            for (std::size_t k = 0; k < segments; ++k) {
                sync.arrive_and_wait();
                while (mono_ns() < deadline) {
                    const Request& r = lane.requests.emplace_back(load(k).next(c));
                    Sample sample;
                    sample.request = &r;
                    sample.phase = phase;
                    sample.segment = segment;
                    sample.lane = static_cast<int>(c + 1);
                    sample.start_ns = sample.due_ns = mono_ns();
                    sample.status = exchange(options.port, r.wire);
                    sample.end_ns = mono_ns();
                    lane.samples.push_back(sample);
                    if (run.rss_mark != 0 && sample.status == 200 &&
                        r.kind == Kind::kIngest) {
                        const std::uint64_t before = run.acknowledged.fetch_add(r.records);
                        if (before < run.rss_mark && before + r.records >= run.rss_mark) {
                            run.peak_rss_kb.store(peak_rss_kb(options.daemon_pid));
                        }
                    }
                }
                sync.arrive_and_wait();
            }
        });
    }
    for (std::size_t k = 0; k < segments; ++k) {
        SegmentRecord record;
        record.phase = phase;
        record.interleaved = interleaved(k);
        std::vector<const Request*> schedule;
        for (Request& r : load(k).open_schedule(seconds)) {
            schedule.push_back(&lanes[0].requests.emplace_back(std::move(r)));
        }
        const std::int64_t cpu0 = daemon_cpu_ns(options.daemon_pid);
        record.start_ns = mono_ns();
        deadline = record.start_ns + static_cast<std::int64_t>(seconds * 1e9);
        segment = run.segments.size();
        sync.arrive_and_wait();
        {
            OpenLoop engine{options.port};
            run.max_inflight = std::max(
                run.max_inflight, engine.run(lanes[0], phase, segment, schedule, record.start_ns));
        }
        sync.arrive_and_wait();
        record.cpu_ns = daemon_cpu_ns(options.daemon_pid) - cpu0;
        run.segments.push_back(record);
    }
    for (std::thread& t : clients) t.join();
    (void)::sched_setaffinity(0, sizeof unpinned, &unpinned);
    write_file(tag + "_after.json", fetch(options.port, "/metrics.json"));
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest_steady|assess_read --seed N "
                 "--seconds S --port P --daemon-pid PID --trace 0|1 --out DIR "
                 "[--cpus MAIN,CLIENT...]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            options.seconds = std::atof(value);
        } else if (key == "--port") {
            options.port = static_cast<std::uint16_t>(std::atoi(value));
        } else if (key == "--daemon-pid") {
            options.daemon_pid = static_cast<pid_t>(std::atoi(value));
        } else if (key == "--trace") {
            options.trace = std::strcmp(value, "1") == 0;
        } else if (key == "--out") {
            options.out = value;
        } else if (key == "--cpus") {
            for (const char* p = value; *p != '\0';) {
                char* end = nullptr;
                options.cpus.push_back(static_cast<int>(std::strtol(p, &end, 10)));
                if (end == p) return usage(argv[0]);
                p = *end == ',' ? end + 1 : end;
            }
        } else {
            return usage(argv[0]);
        }
    }
    std::unique_ptr<Workload> workload;
    if (options.workload == "ingest_steady") {
        workload = std::make_unique<IngestSteady>(options.seed);
    } else if (options.workload == "assess_read") {
        workload = std::make_unique<AssessRead>(options.seed);
    }
    if (!workload || options.port == 0 || options.daemon_pid <= 0 || options.out.empty() ||
        !(options.seconds > 0.0)) {
        return usage(argv[0]);
    }

    std::vector<Lane> lanes(1 + workload->clients());
    std::vector<Check> checks;
    Run run;
    run.rss_mark = workload->rss_mark_records();

    // Preload: one request at a time, in generation order, as segment 0.
    {
        Lane& lane = lanes[0];
        std::size_t failed = 0;
        std::vector<Request> batches = workload->preload();
        SegmentRecord record;
        record.phase = 0;
        // On the first client's CPU, off the daemon's.
        cpu_set_t unpinned;
        CPU_ZERO(&unpinned);
        (void)::sched_getaffinity(0, sizeof unpinned, &unpinned);
        pin_thread(options.cpus, 1);
        const std::int64_t cpu0 = daemon_cpu_ns(options.daemon_pid);
        record.start_ns = mono_ns();
        for (Request& r : batches) {
            const Request& stored = lane.requests.emplace_back(std::move(r));
            Sample sample;
            sample.request = &stored;
            sample.start_ns = sample.due_ns = mono_ns();
            sample.status = exchange(options.port, stored.wire);
            sample.end_ns = mono_ns();
            if (sample.status != 200) ++failed;
            lane.samples.push_back(sample);
        }
        record.cpu_ns = daemon_cpu_ns(options.daemon_pid) - cpu0;
        (void)::sched_setaffinity(0, sizeof unpinned, &unpinned);
        run.segments.push_back(record);
        if (run.rss_mark == 0) run.peak_rss_kb.store(peak_rss_kb(options.daemon_pid));
        checks.push_back({"preload", failed == 0,
                          std::to_string(lane.samples.size() - failed) + "/" +
                              std::to_string(lane.samples.size()) + " preload batches accepted"});
    }

    // Alternating segments are shorter, so that each load's segments
    // still cover the whole phase at about the same density.
    const double segment_seconds =
        workload->interleaved() != nullptr ? kSegmentSeconds / 2 : kSegmentSeconds;
    run_phase(*workload, lanes, 1, 2, kWarmupSeconds / 2, options, run);
    if (options.trace) ::kill(options.daemon_pid, SIGUSR1);
    const auto segments =
        static_cast<std::size_t>(std::max(2.0, std::round(options.seconds / segment_seconds)));
    run_phase(*workload, lanes, 2, segments, segment_seconds, options, run);

    // Quiesce, then audit conservation on the daemon.
    std::string stats;
    for (int i = 0; i < 500; ++i) {
        stats = fetch(options.port, "/ingest/stats");
        if (page_value(stats, "pending_records") == 0) break;
        ::usleep(10'000);
    }
    const std::string store_page = fetch(options.port, "/store");
    unsigned long long acknowledged = 0;
    for (const Lane& lane : lanes) {
        for (const Sample& s : lane.samples) {
            if (s.status == 200 && s.request->kind == Kind::kIngest) {
                acknowledged += s.request->records;
            }
        }
    }
    const long long stored = page_value(store_page, "feedbacks");
    const long long accepted = page_value(stats, "accepted_records");
    checks.push_back({"conservation",
                      stored == static_cast<long long>(acknowledged) &&
                          accepted == static_cast<long long>(acknowledged),
                      "acknowledged " + std::to_string(acknowledged) + ", store " +
                          std::to_string(stored) + ", service accepted " +
                          std::to_string(accepted)});
    const long long admitted = page_value(stats, "admitted_records");
    const long long released = page_value(stats, "released_records");
    const long long pending = page_value(stats, "pending_records");
    checks.push_back({"gate_balance", admitted == released && pending == 0,
                      "admitted " + std::to_string(admitted) + ", released " +
                          std::to_string(released) + ", pending " +
                          std::to_string(pending)});

    const std::vector<const Sample*> ordered = acknowledged_in_order(lanes);
    twin_check(ordered, *workload, options.port, checks);

    if (options.trace && !write_file(options.out + "/replay.csv", replay(ordered, 2))) {
        checks.push_back({"replay_written", false, "cannot write replay.csv"});
    }

    std::string samples =
        "id,kind,phase,segment,lane,status,due_ns,start_ns,end_ns,records\n";
    for (const Lane& lane : lanes) {
        for (const Sample& s : lane.samples) {
            char row[192];
            std::snprintf(row, sizeof row, "%llu,%c,%d,%zu,%d,%d,%lld,%lld,%lld,%u\n",
                          static_cast<unsigned long long>(s.request->id),
                          static_cast<char>(s.request->kind), s.phase, s.segment, s.lane,
                          s.status, static_cast<long long>(s.due_ns),
                          static_cast<long long>(s.start_ns),
                          static_cast<long long>(s.end_ns), s.request->records);
            samples += row;
        }
    }
    std::string segment_csv = "segment,phase,interleaved,start_ns,daemon_cpu_ns\n";
    for (std::size_t i = 0; i < run.segments.size(); ++i) {
        const SegmentRecord& g = run.segments[i];
        char row[96];
        std::snprintf(row, sizeof row, "%zu,%d,%d,%lld,%lld\n", i, g.phase,
                      g.interleaved ? 1 : 0, static_cast<long long>(g.start_ns),
                      static_cast<long long>(g.cpu_ns));
        segment_csv += row;
    }
    std::string checks_json =
        "{\"threads\": " + std::to_string(1 + workload->clients()) +
        ", \"closed_loop_clients\": " + std::to_string(workload->clients()) +
        ", \"max_inflight\": " + std::to_string(run.max_inflight) +
        ", \"peak_rss_kb\": " + std::to_string(run.peak_rss_kb.load()) + ", \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        checks_json += std::string{i == 0 ? "" : ", "} + "{\"name\": \"" + checks[i].name +
                       "\", \"ok\": " + (checks[i].ok ? "true" : "false") +
                       ", \"detail\": \"" + json_escape(checks[i].detail) + "\"}";
    }
    checks_json += "]}\n";
    const bool written = write_file(options.out + "/samples.csv", samples) &&
                         write_file(options.out + "/segments.csv", segment_csv) &&
                         write_file(options.out + "/checks.json", checks_json);
    return written ? 0 : 1;
}
