#ifndef HPR_OBS_JSON_H
#define HPR_OBS_JSON_H

/// \file json.h
/// The one JSON writer behind every JSON text the library emits:
/// `/metrics.json` (obs/export.h), decision records (obs/trace.h),
/// recorder and health frames (obs/flightrecorder.h, obs/watchdog.h)
/// and the `/timeseries` pages (net/endpoints.h).  It owns the syntax —
/// string escaping, the commas between members and elements, nesting —
/// and the two number forms in use, so an emitter only names keys and
/// values.  Output is compact, with no whitespace.  The writer does not
/// validate: callers close containers in order and give keys only to
/// object members.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace hpr::obs {

/// Escape text for embedding inside a JSON string literal: quotes,
/// backslashes, and all control characters (< 0x20) as `\\u00XX` or the
/// short forms `\\n` `\\r` `\\t` `\\b` `\\f`.
[[nodiscard]] std::string escape_json(std::string_view text);

/// `%.12g`, the number form of metrics, recorder frames and
/// `/timeseries` (also the Prometheus bucket bounds): 12 significant
/// digits are plenty for a metric readout.
[[nodiscard]] std::string format_metric(double value);

class JsonWriter {
public:
    /// How doubles print: `kMetric` is format_metric(); `kRoundTrip` is
    /// `%.17g`, which every double survives exactly (decision records
    /// are parsed back by from_jsonl and must not lose precision).
    enum class Doubles { kMetric, kRoundTrip };

    explicit JsonWriter(Doubles doubles = Doubles::kMetric) : doubles_(doubles) {}

    /// Open a container as the top-level value or the next array
    /// element, or as the object member `key`.
    JsonWriter& begin_object() { separate(); return open('{'); }
    JsonWriter& begin_object(std::string_view key) { this->key(key); return open('{'); }
    JsonWriter& begin_array() { separate(); return open('['); }
    JsonWriter& begin_array(std::string_view key) { this->key(key); return open('['); }
    JsonWriter& end_object() { return close('}'); }
    JsonWriter& end_array() { return close(']'); }

    /// Object member `"key":value` / array element.  A value is a string
    /// (std::string_view, const char*), a bool, an std::uint64_t, an
    /// std::int64_t or a double; other integer types must be converted
    /// by the caller, which the overload set enforces by ambiguity.
    template <typename Value>
    JsonWriter& field(std::string_view key, const Value& value) {
        this->key(key);
        write(value);
        return *this;
    }
    template <typename Value>
    JsonWriter& element(const Value& value) {
        separate();
        write(value);
        return *this;
    }

    /// Object member whose value is already JSON text, copied verbatim.
    JsonWriter& raw_field(std::string_view key, std::string_view json) {
        this->key(key);
        out_ += json;
        return *this;
    }

    /// The text written so far; the writer is left empty.
    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    void separate();
    void key(std::string_view key);
    JsonWriter& open(char bracket);
    JsonWriter& close(char bracket);
    void write(std::string_view text);
    void write(const char* text) { write(std::string_view{text}); }
    void write(bool value);
    void write(std::uint64_t value);
    void write(std::int64_t value);
    void write(double value);

    std::string out_;
    Doubles doubles_;
    bool comma_ = false;  ///< the open container already holds a value
};

}  // namespace hpr::obs

#endif  // HPR_OBS_JSON_H
