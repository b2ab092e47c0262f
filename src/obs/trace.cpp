#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/export.h"

namespace hpr::obs {

namespace {

/// Tracing metrics (aggregated over every tracer in the process).
struct TraceMetrics {
    Counter& sampled;
    Counter& records;
    Counter& evicted;
};

TraceMetrics& trace_metrics() {
    auto& registry = default_registry();
    static TraceMetrics metrics{
        registry.counter("hpr_trace_sampled_total",
                         "Assessments that opened a sampled decision trace"),
        registry.counter("hpr_trace_records_total",
                         "DecisionRecords committed to a trace ring"),
        registry.counter("hpr_trace_evicted_total",
                         "DecisionRecords evicted from a full trace ring"),
    };
    return metrics;
}

/// The innermost sampled context on this thread (obs must not depend on
/// stats, so the sampler's mixer lives here too).
thread_local TraceContext* t_current = nullptr;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// 17 significant digits: enough for any double to round-trip exactly
/// through the JSONL dump and back (forensics must not lose precision).
std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void append_string(std::ostringstream& out, std::string_view key,
                   std::string_view value) {
    out << '"' << key << "\":\"" << escape_json(value) << '"';
}

void append_stage(std::ostringstream& out, const StageEvidence& stage) {
    out << "{\"suffix_length\":" << stage.suffix_length
        << ",\"windows\":" << stage.windows
        << ",\"p_hat\":" << format_double(stage.p_hat)
        << ",\"distance\":" << format_double(stage.distance)
        << ",\"epsilon\":" << format_double(stage.epsilon)
        << ",\"sufficient\":" << (stage.sufficient ? "true" : "false")
        << ",\"passed\":" << (stage.passed ? "true" : "false") << '}';
}

}  // namespace

std::string to_jsonl(const DecisionRecord& record) {
    std::ostringstream out;
    out << "{\"trace_id\":" << record.trace_id << ',';
    append_string(out, "source", record.source);
    out << ",\"server\":" << record.server
        << ",\"wall_time\":" << format_double(record.wall_time) << ',';
    append_string(out, "verdict", record.verdict);
    if (!record.transition.empty()) {
        out << ',';
        append_string(out, "transition", record.transition);
    }
    if (record.trust) {
        out << ",\"trust\":" << format_double(*record.trust);
    }
    out << ',';
    append_string(out, "mode", record.mode);
    out << ",\"collusion_resilient\":" << (record.collusion_resilient ? "true" : "false")
        << ",\"window_size\":" << record.window_size
        << ",\"history_length\":" << record.history_length
        << ",\"p_hat\":" << format_double(record.p_hat)
        << ",\"min_margin\":" << format_double(record.min_margin);
    if (record.failed) {
        out << ",\"failed\":";
        append_stage(out, *record.failed);
    }
    if (record.reorder.applied) {
        out << ",\"reorder\":{\"issuers\":" << record.reorder.issuers
            << ",\"largest_group\":" << record.reorder.largest_group
            << ",\"displaced_fraction\":"
            << format_double(record.reorder.displaced_fraction) << '}';
    }
    if (record.runs.evaluated) {
        out << ",\"runs\":{\"passed\":" << (record.runs.passed ? "true" : "false")
            << ",\"z\":" << format_double(record.runs.z)
            << ",\"z_threshold\":" << format_double(record.runs.z_threshold) << '}';
    }
    out << ",\"stages\":[";
    for (std::size_t i = 0; i < record.stages.size(); ++i) {
        if (i != 0) out << ',';
        append_stage(out, record.stages[i]);
    }
    out << "],\"spans\":[";
    for (std::size_t i = 0; i < record.spans.size(); ++i) {
        const SpanRecord& span = record.spans[i];
        if (i != 0) out << ',';
        out << "{\"name\":\"" << escape_json(span.name)
            << "\",\"depth\":" << span.depth
            << ",\"start\":" << format_double(span.start_seconds)
            << ",\"duration\":" << format_double(span.duration_seconds) << '}';
    }
    out << "]}";
    return out.str();
}

// ---------------------------------------------------------------------------
// JSONL parsing: a minimal recursive-descent scanner for the subset of
// JSON to_jsonl() emits (objects, arrays, strings, numbers, booleans,
// null).  Deliberately hand-rolled — the library vendors no JSON
// dependency, and trace_query must parse dumps robustly.

namespace {

class JsonCursor {
public:
    explicit JsonCursor(std::string_view text) : text_(text) {}

    bool at_end() {
        skip_ws();
        return pos_ == text_.size();
    }

    bool consume(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool peek_is(char c) {
        skip_ws();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool parse_string(std::string& out) {
        skip_ws();
        if (!consume('"')) return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ == text_.size()) return false;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return false;
                    unsigned value = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        value <<= 4;
                        if (h >= '0' && h <= '9') {
                            value |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            value |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            value |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return false;
                        }
                    }
                    // to_jsonl only emits \u00XX control escapes; decode
                    // the Latin-1 range and reject the rest.
                    if (value > 0xff) return false;
                    out.push_back(static_cast<char>(value));
                    break;
                }
                default: return false;
            }
        }
        return false;  // unterminated string
    }

    bool parse_number(double& out) {
        const std::string token{number_token()};
        if (token.empty()) return false;
        char* end = nullptr;
        out = std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }

    /// An integer field: the whole number token must be plain decimal
    /// digits that fit `Unsigned` — a sign, fraction, exponent or
    /// overflow is malformed input, never a rounded or truncated value.
    template <typename Unsigned>
    bool parse_integer(Unsigned& out) {
        const std::string_view token = number_token();
        const char* last = token.data() + token.size();
        const auto [end, error] = std::from_chars(token.data(), last, out);
        return error == std::errc{} && end == last;
    }

    bool parse_bool(bool& out) {
        skip_ws();
        if (text_.substr(pos_, 4) == "true") {
            pos_ += 4;
            out = true;
            return true;
        }
        if (text_.substr(pos_, 5) == "false") {
            pos_ += 5;
            out = false;
            return true;
        }
        return false;
    }

    /// Skip one well-formed value of any type.
    bool skip_value() {  // NOLINT(misc-no-recursion)
        skip_ws();
        if (pos_ == text_.size()) return false;
        const char c = text_[pos_];
        if (c == '"') {
            std::string ignored;
            return parse_string(ignored);
        }
        if (c == '{') return skip_composite('{', '}');
        if (c == '[') return skip_composite('[', ']');
        if (c == 't' || c == 'f') {
            bool ignored = false;
            return parse_bool(ignored);
        }
        if (text_.substr(pos_, 4) == "null") {
            pos_ += 4;
            return true;
        }
        double ignored = 0.0;
        return parse_number(ignored);
    }

    /// Walk `{"key": value, ...}`, calling `handler(key)` per member; the
    /// handler must consume the value (return false to have it skipped).
    template <typename Handler>
    bool parse_object(Handler&& handler) {  // NOLINT(misc-no-recursion)
        if (!consume('{')) return false;
        if (consume('}')) return true;
        while (true) {
            std::string key;
            if (!parse_string(key) || !consume(':')) return false;
            if (!handler(key)) {
                if (!skip_value()) return false;
            }
            if (consume('}')) return true;
            if (!consume(',')) return false;
        }
    }

    /// Walk `[value, ...]`, calling `handler()` once per element.
    template <typename Handler>
    bool parse_array(Handler&& handler) {
        if (!consume('[')) return false;
        if (consume(']')) return true;
        while (true) {
            if (!handler()) return false;
            if (consume(']')) return true;
            if (!consume(',')) return false;
        }
    }

private:
    /// Consume the characters a JSON number may contain; empty when no
    /// number starts here.
    std::string_view number_token() {
        skip_ws();
        const std::size_t begin = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
                c == 'e' || c == 'E') {
                ++pos_;
            } else {
                break;
            }
        }
        return text_.substr(begin, pos_ - begin);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    bool skip_composite(char open, char close) {  // NOLINT(misc-no-recursion)
        if (!consume(open)) return false;
        if (consume(close)) return true;
        while (true) {
            if (peek_is('"')) {
                std::string ignored;
                if (!parse_string(ignored)) return false;
            } else if (!skip_value()) {
                return false;
            }
            if (consume(close)) return true;
            if (consume(',') || consume(':')) continue;
            return false;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

bool parse_stage(JsonCursor& cursor, StageEvidence& stage) {
    return cursor.parse_object([&](const std::string& key) {
        if (key == "suffix_length") return cursor.parse_integer(stage.suffix_length);
        if (key == "windows") return cursor.parse_integer(stage.windows);
        if (key == "p_hat") return cursor.parse_number(stage.p_hat);
        if (key == "distance") return cursor.parse_number(stage.distance);
        if (key == "epsilon") return cursor.parse_number(stage.epsilon);
        if (key == "sufficient") return cursor.parse_bool(stage.sufficient);
        if (key == "passed") return cursor.parse_bool(stage.passed);
        return false;  // unknown key: skipped by the object walker
    });
}

}  // namespace

bool from_jsonl(std::string_view line, DecisionRecord& out) {
    out = DecisionRecord{};
    JsonCursor cursor{line};
    const bool parsed = cursor.parse_object([&](const std::string& key) {
        if (key == "trace_id") return cursor.parse_integer(out.trace_id);
        if (key == "source") return cursor.parse_string(out.source);
        if (key == "server") return cursor.parse_integer(out.server);
        if (key == "wall_time") return cursor.parse_number(out.wall_time);
        if (key == "verdict") return cursor.parse_string(out.verdict);
        if (key == "transition") return cursor.parse_string(out.transition);
        if (key == "trust") {
            double trust = 0.0;
            if (!cursor.parse_number(trust)) return false;
            out.trust = trust;
            return true;
        }
        if (key == "mode") return cursor.parse_string(out.mode);
        if (key == "collusion_resilient") {
            return cursor.parse_bool(out.collusion_resilient);
        }
        if (key == "window_size") return cursor.parse_integer(out.window_size);
        if (key == "history_length") return cursor.parse_integer(out.history_length);
        if (key == "p_hat") return cursor.parse_number(out.p_hat);
        if (key == "min_margin") return cursor.parse_number(out.min_margin);
        if (key == "failed") {
            StageEvidence stage;
            if (!parse_stage(cursor, stage)) return false;
            out.failed = stage;
            return true;
        }
        if (key == "reorder") {
            out.reorder.applied = true;
            return cursor.parse_object([&](const std::string& sub) {
                if (sub == "issuers") return cursor.parse_integer(out.reorder.issuers);
                if (sub == "largest_group") {
                    return cursor.parse_integer(out.reorder.largest_group);
                }
                if (sub == "displaced_fraction") {
                    return cursor.parse_number(out.reorder.displaced_fraction);
                }
                return false;
            });
        }
        if (key == "runs") {
            out.runs.evaluated = true;
            return cursor.parse_object([&](const std::string& sub) {
                if (sub == "passed") return cursor.parse_bool(out.runs.passed);
                if (sub == "z") return cursor.parse_number(out.runs.z);
                if (sub == "z_threshold") {
                    return cursor.parse_number(out.runs.z_threshold);
                }
                return false;
            });
        }
        if (key == "stages") {
            return cursor.parse_array([&] {
                StageEvidence stage;
                if (!parse_stage(cursor, stage)) return false;
                out.stages.push_back(stage);
                return true;
            });
        }
        if (key == "spans") {
            return cursor.parse_array([&] {
                SpanRecord span;
                const bool ok = cursor.parse_object([&](const std::string& sub) {
                    if (sub == "name") return cursor.parse_string(span.name);
                    if (sub == "depth") return cursor.parse_integer(span.depth);
                    if (sub == "start") return cursor.parse_number(span.start_seconds);
                    if (sub == "duration") {
                        return cursor.parse_number(span.duration_seconds);
                    }
                    return false;
                });
                if (!ok) return false;
                out.spans.push_back(std::move(span));
                return true;
            });
        }
        return false;  // unknown key: skipped (forward compatibility)
    });
    return parsed && cursor.at_end();
}

// ---------------------------------------------------------------------------
// TraceRing

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
        throw std::invalid_argument("TraceRing: capacity must be positive");
    }
    slots_.resize(capacity_);
}

void TraceRing::push(DecisionRecord&& record) {
    bool did_evict = false;
    {
        const std::scoped_lock lock{mutex_};
        if (size_ == capacity_) {
            // Full: overwrite the oldest slot and advance the head.
            slots_[head_] = std::move(record);
            head_ = (head_ + 1) % capacity_;
            ++evicted_;
            did_evict = true;
        } else {
            slots_[(head_ + size_) % capacity_] = std::move(record);
            ++size_;
        }
        ++pushed_;
    }
    if (did_evict) trace_metrics().evicted.increment();
}

std::vector<DecisionRecord> TraceRing::drain() {
    const std::scoped_lock lock{mutex_};
    std::vector<DecisionRecord> drained;
    drained.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
        drained.push_back(std::move(slots_[(head_ + i) % capacity_]));
    }
    head_ = 0;
    size_ = 0;
    return drained;
}

std::vector<DecisionRecord> TraceRing::snapshot() const {
    const std::scoped_lock lock{mutex_};
    std::vector<DecisionRecord> records;
    records.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
        records.push_back(slots_[(head_ + i) % capacity_]);
    }
    return records;
}

std::size_t TraceRing::size() const {
    const std::scoped_lock lock{mutex_};
    return size_;
}

std::uint64_t TraceRing::pushed() const {
    const std::scoped_lock lock{mutex_};
    return pushed_;
}

std::uint64_t TraceRing::evicted() const {
    const std::scoped_lock lock{mutex_};
    return evicted_;
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

/// Sampling threshold: compare the top 32 bits of the id hash against
/// rate * 2^32 (32-bit resolution is ample for a sampling knob, and the
/// arithmetic stays exact in double).
std::uint64_t rate_to_threshold(double rate) noexcept {
    if (!(rate > 0.0)) return 0;             // also maps NaN to "never"
    if (rate >= 1.0) return 1ULL << 32;      // above any 32-bit hash: always
    return static_cast<std::uint64_t>(rate * 4294967296.0);
}

}  // namespace

Tracer::Tracer(TracerConfig config)
    : config_(config),
      enabled_(config.enabled),
      span_stages_(config.span_stages),
      rate_threshold_(rate_to_threshold(config.sample_rate)),
      ring_(config.ring_capacity) {}

void Tracer::set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
}

bool Tracer::active() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
}

void Tracer::set_sample_rate(double rate) noexcept {
    rate_threshold_.store(rate_to_threshold(rate), std::memory_order_relaxed);
}

double Tracer::sample_rate() const noexcept {
    const std::uint64_t threshold = rate_threshold_.load(std::memory_order_relaxed);
    return std::min(1.0, static_cast<double>(threshold) / 4294967296.0);
}

void Tracer::set_span_stages(bool enabled) noexcept {
    span_stages_.store(enabled, std::memory_order_relaxed);
}

bool Tracer::span_stages() const noexcept {
    return span_stages_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::next_trace_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
}

bool Tracer::sampled(std::uint64_t trace_id) const noexcept {
    const std::uint64_t threshold = rate_threshold_.load(std::memory_order_relaxed);
    if (threshold == 0) return false;
    if (threshold >= (1ULL << 32)) return true;
    return (splitmix64(config_.seed ^ trace_id) >> 32) < threshold;
}

Tracer& default_tracer() {
    static Tracer* tracer = new Tracer();  // leaked: see default_registry()
    return *tracer;
}

// ---------------------------------------------------------------------------
// TraceContext / TraceSpan

TraceContext::TraceContext(Tracer& tracer, std::uint64_t server,
                           std::string_view source) {
    if (!enabled() || !tracer.active()) return;
    const std::uint64_t id = tracer.next_trace_id();
    if (!tracer.sampled(id)) return;
    tracer_ = &tracer;
    span_stages_ = tracer.span_stages();
    record_.emplace();
    record_->trace_id = id;
    record_->server = server;
    record_->source = source;
    record_->wall_time =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    prev_ = t_current;
    t_current = this;
    watch_.restart();
    trace_metrics().sampled.increment();
}

TraceContext::~TraceContext() {
    if (!record_) return;
    t_current = prev_;
    tracer_->ring().push(std::move(*record_));
    trace_metrics().records.increment();
}

TraceContext* TraceContext::current() noexcept {
    if (!enabled()) return nullptr;
    return t_current;
}

double TraceContext::elapsed_seconds() const {
    return record_ ? watch_.seconds() : 0.0;
}

void TraceSpan::open(const char* name) noexcept {
    TraceContext* context = TraceContext::current();
    if (context == nullptr) return;
    context_ = context;
    name_ = name;
    depth_ = context->open_depth_++;
    start_ = context->watch_.seconds();
}

void TraceSpan::close() noexcept {
    --context_->open_depth_;
    context_->record_->spans.push_back(SpanRecord{
        name_, depth_, start_, context_->watch_.seconds() - start_});
}

}  // namespace hpr::obs
