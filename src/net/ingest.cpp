#include "net/ingest.h"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/two_phase.h"

namespace hpr::net {

bool parse_decimal_u64(std::string_view token, std::uint64_t& out,
                       std::uint64_t max) {
    if (token.empty() || token.size() > 20) return false;
    std::uint64_t value = 0;
    for (const char c : token) {
        if (c < '0' || c > '9') return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            return false;
        }
        value = value * 10 + digit;
    }
    if (value > max) return false;
    out = value;
    return true;
}

namespace {

using obs::IntrospectionPage;
using obs::IntrospectionRequest;

bool parse_field_i64(std::string_view token, std::int64_t& out) {
    bool negative = false;
    if (!token.empty() && token.front() == '-') {
        negative = true;
        token.remove_prefix(1);
    }
    std::uint64_t magnitude = 0;
    const std::uint64_t max =
        negative ? static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max()) +
                       1
                 : static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max());
    if (!parse_decimal_u64(token, magnitude, max)) return false;
    out = negative ? -static_cast<std::int64_t>(magnitude - 1) - 1
                   : static_cast<std::int64_t>(magnitude);
    return true;
}

std::string line_error(std::size_t line, std::string_view reason) {
    std::string error = "line ";
    error += std::to_string(line);
    error += ": ";
    error += reason;
    return error;
}

IntrospectionPage error_text(int status, std::string body) {
    IntrospectionPage page;
    page.status = status;
    page.body = std::move(body);
    page.body += '\n';
    return page;
}

void append_kv(std::string& out, std::string_view key, std::string_view value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// IngestGate

struct IngestGate::Metrics {
    obs::Gauge& budget;
    obs::Gauge& pending;
    obs::Counter& admitted;
    obs::Counter& admitted_records;
    obs::Counter& released_records;
    obs::Counter& shed_soft;
    obs::Counter& shed_hard;
    obs::Counter& shed_overflow;

    static Metrics& instance() {
        auto& registry = obs::default_registry();
        static Metrics metrics{
            registry.gauge("hpr_ingest_gate_budget_records",
                           "Pending-records budget of the ingest gate"),
            registry.gauge("hpr_ingest_gate_pending_records",
                           "Estimated records of admitted, not-yet-dispatched "
                           "ingest requests"),
            registry.counter("hpr_ingest_gate_admitted_total",
                             "Ingest requests admitted by the gate"),
            registry.counter("hpr_ingest_gate_admitted_records_total",
                             "Estimated records charged by admitted requests"),
            registry.counter("hpr_ingest_gate_released_records_total",
                             "Charged records returned to the budget"),
            registry.counter("hpr_ingest_gate_shed_soft_total",
                             "Large requests shed in the soft-watermark zone "
                             "(429)"),
            registry.counter("hpr_ingest_gate_shed_hard_total",
                             "Requests shed at or above the hard watermark "
                             "(429)"),
            registry.counter("hpr_ingest_gate_shed_overflow_total",
                             "Requests shed because their estimate alone "
                             "overflows the budget (429)"),
        };
        return metrics;
    }
};

IngestGate::IngestGate(IngestGateConfig config)
    : config_(config), metrics_(&Metrics::instance()) {
    if (config_.pending_budget == 0) config_.pending_budget = 1;
    const auto clamp01 = [](double value) {
        return value < 0.0 ? 0.0 : (value > 1.0 ? 1.0 : value);
    };
    config_.soft_watermark = clamp01(config_.soft_watermark);
    config_.hard_watermark = clamp01(config_.hard_watermark);
    if (config_.hard_watermark < config_.soft_watermark) {
        config_.hard_watermark = config_.soft_watermark;
    }
    if (config_.retry_after_seconds < 1) config_.retry_after_seconds = 1;
    soft_records_ = static_cast<std::size_t>(
        static_cast<double>(config_.pending_budget) * config_.soft_watermark);
    hard_records_ = static_cast<std::size_t>(
        static_cast<double>(config_.pending_budget) * config_.hard_watermark);
    metrics_->budget.set(static_cast<std::int64_t>(config_.pending_budget));
}

bool IngestGate::try_admit(std::size_t records) noexcept {
    std::size_t pending = pending_.load(std::memory_order_relaxed);
    for (;;) {
        if (records > config_.pending_budget - pending) {
            // Overflow first: whatever zone we are in, this request does
            // not fit.
            shed_overflow_.fetch_add(1, std::memory_order_relaxed);
            metrics_->shed_overflow.increment();
            return false;
        }
        if (pending >= hard_records_) {
            shed_hard_.fetch_add(1, std::memory_order_relaxed);
            metrics_->shed_hard.increment();
            return false;
        }
        if (pending >= soft_records_ &&
            records > config_.large_request_records) {
            shed_soft_.fetch_add(1, std::memory_order_relaxed);
            metrics_->shed_soft.increment();
            return false;
        }
        if (pending_.compare_exchange_weak(pending, pending + records,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            break;
        }
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    admitted_records_.fetch_add(records, std::memory_order_relaxed);
    metrics_->admitted.increment();
    metrics_->admitted_records.increment(records);
    metrics_->pending.set(
        static_cast<std::int64_t>(pending_.load(std::memory_order_relaxed)));
    return true;
}

void IngestGate::release(std::size_t records) noexcept {
    // Clamp against underflow: a release can never exceed what was
    // charged, but the gate protects its own invariant regardless.
    std::size_t pending = pending_.load(std::memory_order_relaxed);
    for (;;) {
        const std::size_t give = records < pending ? records : pending;
        if (pending_.compare_exchange_weak(pending, pending - give,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            released_records_.fetch_add(give, std::memory_order_relaxed);
            metrics_->released_records.increment(give);
            break;
        }
    }
    metrics_->pending.set(
        static_cast<std::int64_t>(pending_.load(std::memory_order_relaxed)));
}

// ---------------------------------------------------------------------------
// Body parser

bool parse_ingest_body(const std::string& body,
                       std::vector<repsys::Feedback>& out,
                       std::string& error) {
    out.clear();
    if (body.empty()) {
        error = "empty batch";
        return false;
    }
    std::size_t line_number = 0;
    std::size_t position = 0;
    while (position < body.size()) {
        ++line_number;
        std::size_t eol = body.find('\n', position);
        const bool final_unterminated = eol == std::string::npos;
        if (final_unterminated) eol = body.size();
        std::string_view line{body.data() + position, eol - position};
        position = eol + 1;

        if (line.empty()) {
            error = line_error(line_number, "empty line");
            return false;
        }
        if (line.back() == '\r') {
            error = line_error(line_number,
                               "carriage return (lines are LF-terminated)");
            return false;
        }
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 =
            sp1 == std::string_view::npos ? std::string_view::npos
                                          : line.find(' ', sp1 + 1);
        if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
            line.find(' ', sp2 + 1) != std::string_view::npos) {
            error = line_error(
                line_number,
                "expected exactly 3 fields: server_id timestamp outcome");
            return false;
        }
        const std::string_view server_field = line.substr(0, sp1);
        const std::string_view time_field = line.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::string_view outcome_field = line.substr(sp2 + 1);

        std::uint64_t server = 0;
        if (!parse_decimal_u64(server_field, server,
                               std::numeric_limits<repsys::EntityId>::max())) {
            error = line_error(line_number, "bad server id");
            return false;
        }
        std::int64_t timestamp = 0;
        if (!parse_field_i64(time_field, timestamp)) {
            error = line_error(line_number, "bad timestamp");
            return false;
        }
        repsys::Rating rating{};
        if (outcome_field == "0") {
            rating = repsys::Rating::kNegative;
        } else if (outcome_field == "1") {
            rating = repsys::Rating::kPositive;
        } else if (outcome_field == "2") {
            rating = repsys::Rating::kNeutral;
        } else {
            error = line_error(line_number, "bad outcome (0, 1 or 2)");
            return false;
        }

        repsys::Feedback feedback;
        feedback.time = timestamp;
        feedback.server = static_cast<repsys::EntityId>(server);
        feedback.client = 0;  // the wire protocol carries no issuer id
        feedback.rating = rating;
        out.push_back(feedback);

        if (final_unterminated) break;
    }
    return true;
}

// ---------------------------------------------------------------------------
// IngestService

struct IngestService::Metrics {
    obs::Counter& ingest_requests;
    obs::Counter& ingest_accepted;
    obs::Counter& ingest_accepted_records;
    obs::Counter& ingest_rejected;
    obs::Histogram& ingest_seconds;
    obs::Counter& assess_requests;
    obs::Counter& assess_suspicious;
    obs::Histogram& assess_seconds;

    static Metrics& instance() {
        auto& registry = obs::default_registry();
        static Metrics metrics{
            registry.counter("hpr_ingest_http_requests_total",
                             "POST /ingest requests handled"),
            registry.counter("hpr_ingest_http_accepted_total",
                             "POST /ingest requests accepted (200)"),
            registry.counter("hpr_ingest_http_accepted_records_total",
                             "Feedback records committed through POST /ingest"),
            registry.counter("hpr_ingest_http_rejected_total",
                             "POST /ingest requests rejected (400/413)"),
            registry.histogram("hpr_ingest_http_request_seconds",
                               "POST /ingest handling latency (parse through "
                               "screener-bank update)"),
            registry.counter("hpr_assess_http_requests_total",
                             "GET /assess requests handled"),
            registry.counter("hpr_assess_http_suspicious_total",
                             "GET /assess responses with a suspicious verdict"),
            registry.histogram("hpr_assess_http_request_seconds",
                               "GET /assess handling latency"),
        };
        return metrics;
    }
};

IngestService::IngestService(repsys::FeedbackStore& store,
                             serve::BatchAssessor& assessor,
                             IngestServiceConfig config)
    : config_(config),
      store_(store),
      assessor_(assessor),
      gate_(config.gate),
      metrics_(&Metrics::instance()) {
    if (config_.max_records_per_request == 0) {
        config_.max_records_per_request = 1;
    }
}

HttpResponse IngestService::handle_ingest(const HttpRequest& request) {
    const auto start = std::chrono::steady_clock::now();
    metrics_->ingest_requests.increment();

    const auto reject = [&](int status, std::string detail) {
        rejected_requests_.fetch_add(1, std::memory_order_relaxed);
        metrics_->ingest_rejected.increment();
        HttpResponse response;
        response.status = status;
        response.body = std::move(detail);
        response.body += '\n';
        return response;
    };

    std::vector<repsys::Feedback> feedbacks;
    std::string parse_error;
    if (!parse_ingest_body(request.body, feedbacks, parse_error)) {
        return reject(400, "bad batch: " + parse_error);
    }
    if (feedbacks.size() > config_.max_records_per_request) {
        return reject(413, "batch too large: " +
                               std::to_string(feedbacks.size()) +
                               " records > cap " +
                               std::to_string(config_.max_records_per_request));
    }
    try {
        store_.ingest_batch(feedbacks);
    } catch (const repsys::BatchRejected& rejected) {
        // Batch index -> 1-based body line.
        return reject(400, "bad batch: " +
                               line_error(rejected.index() + 1,
                                          "out-of-order timestamp for its "
                                          "server"));
    }
    // The batch is committed; stream it into the screener bank so the
    // very next /assess answers from it.
    for (const repsys::Feedback& feedback : feedbacks) {
        assessor_.observe(feedback);
    }

    accepted_requests_.fetch_add(1, std::memory_order_relaxed);
    accepted_records_.fetch_add(feedbacks.size(), std::memory_order_relaxed);
    metrics_->ingest_accepted.increment();
    metrics_->ingest_accepted_records.increment(feedbacks.size());
    metrics_->ingest_seconds.observe(seconds_since(start));

    HttpResponse response;
    response.body = "accepted=" + std::to_string(feedbacks.size()) + "\n";
    return response;
}

IntrospectionPage IngestService::assess_page(
    const IntrospectionRequest& request) {
    const auto start = std::chrono::steady_clock::now();
    metrics_->assess_requests.increment();

    const auto server_param = request.param("server");
    if (!server_param) {
        return error_text(400, "missing 'server' parameter");
    }
    std::uint64_t id = 0;
    if (!parse_decimal_u64(*server_param, id,
                           std::numeric_limits<repsys::EntityId>::max())) {
        return error_text(400, "bad 'server' parameter: " + *server_param);
    }
    const auto server = static_cast<repsys::EntityId>(id);

    serve::BatchAssessor::ServedAssessment served;
    try {
        served = assessor_.assess_served(store_, server);
    } catch (const std::out_of_range&) {
        return error_text(404, "unknown server: " + std::to_string(server));
    }
    const core::Assessment& assessment = served.assessment;
    if (assessment.verdict == core::Verdict::kSuspicious) {
        metrics_->assess_suspicious.increment();
    }

    std::string body;
    append_kv(body, "server", std::to_string(server));
    append_kv(body, "verdict", core::to_string(assessment.verdict));
    append_kv(body, "trust",
              assessment.trust ? std::to_string(*assessment.trust) : "none");
    append_kv(body, "history_length", std::to_string(served.history_length));
    append_kv(body, "stream_state", core::to_string(served.stream_state));
    metrics_->assess_seconds.observe(seconds_since(start));

    IntrospectionPage page;
    page.body = std::move(body);
    return page;
}

IntrospectionPage IngestService::stats_page(
    const IntrospectionRequest&) const {
    std::string body;
    append_kv(body, "budget_records",
              std::to_string(gate_.config().pending_budget));
    append_kv(body, "pending_records", std::to_string(gate_.pending()));
    append_kv(body, "soft_watermark_records",
              std::to_string(gate_.soft_records()));
    append_kv(body, "hard_watermark_records",
              std::to_string(gate_.hard_records()));
    append_kv(body, "large_request_records",
              std::to_string(gate_.config().large_request_records));
    append_kv(body, "retry_after_seconds",
              std::to_string(gate_.retry_after_seconds()));
    append_kv(body, "admitted_requests", std::to_string(gate_.admitted()));
    append_kv(body, "admitted_records",
              std::to_string(gate_.admitted_records()));
    append_kv(body, "released_records",
              std::to_string(gate_.released_records()));
    append_kv(body, "shed_soft", std::to_string(gate_.shed_soft()));
    append_kv(body, "shed_hard", std::to_string(gate_.shed_hard()));
    append_kv(body, "shed_overflow", std::to_string(gate_.shed_overflow()));
    append_kv(body, "max_records_per_request",
              std::to_string(config_.max_records_per_request));
    append_kv(body, "accepted_requests", std::to_string(accepted_requests()));
    append_kv(body, "accepted_records", std::to_string(accepted_records()));
    append_kv(body, "rejected_requests", std::to_string(rejected_requests()));
    IntrospectionPage page;
    page.body = std::move(body);
    return page;
}

void register_ingest(obs::IntrospectionTree& tree, IngestService& service) {
    tree.add("/assess", "text/plain; charset=utf-8",
             "Two-phase verdict for one server: /assess?server=<id>",
             [&service](const IntrospectionRequest& request) {
                 return service.assess_page(request);
             });
    tree.add("/ingest/stats", "text/plain; charset=utf-8",
             "Live ingest-gate budget, watermarks and shed counters",
             [&service](const IntrospectionRequest& request) {
                 return service.stats_page(request);
             });
}

}  // namespace hpr::net
