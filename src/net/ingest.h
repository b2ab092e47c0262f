#ifndef HPR_NET_INGEST_H
#define HPR_NET_INGEST_H

/// \file ingest.h
/// The write half of the serving layer: network feedback ingest with
/// admission control, and wire-level assessment queries.
///
/// ROADMAP item 1's read half (live introspection pages) went in first;
/// this file adds the part the paper's deployment story actually hinges
/// on — "heavy traffic from millions of users" arriving *over the
/// network* and being screened online.  Two pieces:
///
/// **IngestGate — backpressure before buffering.**  The epoll front-end
/// charges every POST against the gate at header-parse time, from the
/// declared Content-Length, *before* a single body byte is buffered:
///
///     estimated records = body_bytes / kMinRecordBytes + 1
///
/// (`kMinRecordBytes` is the shortest well-formed record, "1 1 1\n").
/// The gate holds a bounded pending-records budget with two watermarks:
///
///  * below the **soft watermark** every request is admitted;
///  * between soft and hard, only *small* requests (at most
///    `large_request_records`) are admitted — large batches are shed
///    first because they are the cheapest load to push back on and the
///    likeliest to blow the budget;
///  * at or above the **hard watermark**, everything is shed;
///  * a request whose estimate alone would overflow the budget is shed
///    outright (hard overflow), whatever the watermarks say.
///
/// A shed request draws `429 Too Many Requests` with a `Retry-After`
/// header.  The charge is released exactly once — when the request is
/// dispatched to the handler or when its connection dies — so a client
/// disconnecting mid-body can never leak budget (the stress suite
/// asserts pending returns to zero).
///
/// **IngestService — the protocol endpoints.**
///
///  * `POST /ingest` accepts a compact line-oriented batch, one record
///    per line: `server_id timestamp outcome` (outcome 0 = negative,
///    1 = positive, 2 = neutral; client id is recorded as 0 — the wire
///    protocol carries no issuer identity).  The parser is strict:
///    exactly three space-separated decimal fields, LF line endings, no
///    blank lines; the first malformed line rejects the request with
///    `400` naming that line.  Parsed batches go to
///    `FeedbackStore::ingest_batch`, which is all-or-nothing across the
///    whole batch — an out-of-order timestamp anywhere leaves the store
///    byte-identical (`400` with the offending line).  Accepted records
///    are streamed into the `serve::BatchAssessor` screener bank, so a
///    subsequent `/assess` sees them immediately.
///  * `GET /assess?server=<id>` answers the two-phase verdict from the
///    streaming bank (with batch fallback), as a small key-value page.
///  * `GET /ingest/stats` exposes the gate's live budget, watermarks,
///    and shed counters.
///
/// Everything is instrumented through the obs registry
/// (`hpr_ingest_gate_*`, `hpr_ingest_http_*`, `hpr_assess_http_*`);
/// metrics are registered at construction so a zero-traffic scrape
/// already lists them (the metric-inventory CI check depends on that).
///
/// Thread-safety: IngestGate is lock-free atomics, callable from any
/// thread.  IngestService handlers are thread-safe because their
/// substrates are (sharded FeedbackStore, lock-striped BatchAssessor).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/http_server.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "repsys/store.h"
#include "serve/batch_assessor.h"

namespace hpr::net {

/// Admission policy knobs (see the file comment for the model).
struct IngestGateConfig {
    /// Pending-records budget: the estimated records of all admitted but
    /// not-yet-dispatched requests never exceed this.
    std::size_t pending_budget = std::size_t{1} << 16;

    /// Watermarks as fractions of the budget, 0 <= soft <= hard <= 1.
    double soft_watermark = 0.5;
    double hard_watermark = 0.9;

    /// In the soft zone, requests estimated above this many records are
    /// shed while smaller ones still pass.
    std::size_t large_request_records = 1024;

    /// Advertised in the Retry-After header of every 429.
    int retry_after_seconds = 1;
};

/// Bounded pending-records budget with watermark admission.  Lock-free;
/// every mutation also updates the hpr_ingest_gate_* metrics.
class IngestGate {
public:
    /// Shortest well-formed ingest record, "1 1 1\n" — the divisor of
    /// the worst-case record estimate.
    static constexpr std::size_t kMinRecordBytes = 6;

    /// Worst-case records a body of `body_bytes` could carry.
    [[nodiscard]] static std::size_t estimate_records(
        std::size_t body_bytes) noexcept {
        return body_bytes / kMinRecordBytes + 1;
    }

    explicit IngestGate(IngestGateConfig config = {});

    IngestGate(const IngestGate&) = delete;
    IngestGate& operator=(const IngestGate&) = delete;

    /// Try to admit a request estimated at `records`; true charges the
    /// budget (pair with exactly one release), false means shed (429).
    [[nodiscard]] bool try_admit(std::size_t records) noexcept;

    /// Return an admitted request's charge to the budget.
    void release(std::size_t records) noexcept;

    [[nodiscard]] std::size_t pending() const noexcept {
        return pending_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] int retry_after_seconds() const noexcept {
        return config_.retry_after_seconds;
    }
    [[nodiscard]] const IngestGateConfig& config() const noexcept {
        return config_;
    }

    /// Resolved watermark levels, in records.
    [[nodiscard]] std::size_t soft_records() const noexcept { return soft_records_; }
    [[nodiscard]] std::size_t hard_records() const noexcept { return hard_records_; }

    /// Lifetime totals.
    [[nodiscard]] std::uint64_t admitted() const noexcept {
        return admitted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t admitted_records() const noexcept {
        return admitted_records_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t released_records() const noexcept {
        return released_records_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t shed_soft() const noexcept {
        return shed_soft_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t shed_hard() const noexcept {
        return shed_hard_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t shed_overflow() const noexcept {
        return shed_overflow_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t shed_total() const noexcept {
        return shed_soft() + shed_hard() + shed_overflow();
    }

private:
    struct Metrics;

    IngestGateConfig config_;
    std::size_t soft_records_ = 0;
    std::size_t hard_records_ = 0;
    Metrics* metrics_;  ///< registry-owned, never null

    std::atomic<std::size_t> pending_{0};
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> admitted_records_{0};
    std::atomic<std::uint64_t> released_records_{0};
    std::atomic<std::uint64_t> shed_soft_{0};
    std::atomic<std::uint64_t> shed_hard_{0};
    std::atomic<std::uint64_t> shed_overflow_{0};
};

struct IngestServiceConfig {
    /// Per-request record cap: a parsed batch with more records draws
    /// 413 (the byte-level cap is the server's max_body_bytes).
    std::size_t max_records_per_request = 8192;

    /// Admission policy of the embedded gate.
    IngestGateConfig gate{};
};

/// The ingest/assess endpoints over a FeedbackStore and its screener
/// bank.  Non-owning references: store and assessor must outlive the
/// service (and the server serving it).
class IngestService {
public:
    IngestService(repsys::FeedbackStore& store, serve::BatchAssessor& assessor,
                  IngestServiceConfig config = {});

    IngestService(const IngestService&) = delete;
    IngestService& operator=(const IngestService&) = delete;

    /// The gate to hand to HttpServerConfig::ingest_gate.
    [[nodiscard]] IngestGate& gate() noexcept { return gate_; }
    [[nodiscard]] const IngestGate& gate() const noexcept { return gate_; }

    /// POST /ingest: parse, validate, ingest all-or-nothing, stream into
    /// the screener bank.  200 "accepted=<n>", 400 on the first bad
    /// line, 413 over the record cap.
    [[nodiscard]] HttpResponse handle_ingest(const HttpRequest& request);

    /// GET /assess?server=<id> as an introspection page.
    [[nodiscard]] obs::IntrospectionPage assess_page(
        const obs::IntrospectionRequest& request);

    /// GET /ingest/stats: live gate + service counters.
    [[nodiscard]] obs::IntrospectionPage stats_page(
        const obs::IntrospectionRequest& request) const;

    [[nodiscard]] const IngestServiceConfig& config() const noexcept {
        return config_;
    }

    /// Lifetime totals of this service instance.
    [[nodiscard]] std::uint64_t accepted_requests() const noexcept {
        return accepted_requests_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t accepted_records() const noexcept {
        return accepted_records_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t rejected_requests() const noexcept {
        return rejected_requests_.load(std::memory_order_relaxed);
    }

private:
    struct Metrics;

    IngestServiceConfig config_;
    repsys::FeedbackStore& store_;
    serve::BatchAssessor& assessor_;
    IngestGate gate_;
    Metrics* metrics_;  ///< registry-owned, never null

    std::atomic<std::uint64_t> accepted_requests_{0};
    std::atomic<std::uint64_t> accepted_records_{0};
    std::atomic<std::uint64_t> rejected_requests_{0};
};

/// Strict decimal parse of a wire field or query value: digits only, the
/// whole token, at most `max`.  Ingest lines, `/assess` and the integer
/// parameters of net/endpoints.h all use it, so `+7` is malformed everywhere.
[[nodiscard]] bool parse_decimal_u64(std::string_view token, std::uint64_t& out,
                                     std::uint64_t max = UINT64_MAX);

/// Parse one ingest body into feedbacks.  On failure returns false and
/// fills `error` with "line <n>: <reason>" (1-based).  Exposed for the
/// protocol fuzz suite; handle_ingest is the normal entry point.
[[nodiscard]] bool parse_ingest_body(const std::string& body,
                                     std::vector<repsys::Feedback>& out,
                                     std::string& error);

/// Register GET /assess and GET /ingest/stats on the tree.  The service
/// must outlive the tree's use.
void register_ingest(obs::IntrospectionTree& tree, IngestService& service);

}  // namespace hpr::net

#endif  // HPR_NET_INGEST_H
