#include "obs/json.h"

#include <cstdio>

namespace hpr::obs {

namespace {

constexpr const char* kMetricForm = "%.12g";
constexpr const char* kRoundTripForm = "%.17g";

void append_double(std::string& out, double value, const char* format) {
    char buffer[32];
    const int written = std::snprintf(buffer, sizeof buffer, format, value);
    out.append(buffer, static_cast<std::size_t>(written));
}

void append_escaped(std::string& out, std::string_view text) {
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buffer;
                } else {
                    out += c;
                }
                break;
        }
    }
}

}  // namespace

std::string escape_json(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    append_escaped(out, text);
    return out;
}

std::string format_metric(double value) {
    std::string out;
    append_double(out, value, kMetricForm);
    return out;
}

void JsonWriter::separate() {
    if (comma_) out_ += ',';
    comma_ = true;
}

void JsonWriter::key(std::string_view key) {
    separate();
    write(key);
    out_ += ':';
}

JsonWriter& JsonWriter::open(char bracket) {
    out_ += bracket;
    comma_ = false;
    return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
    out_ += bracket;
    comma_ = true;
    return *this;
}

void JsonWriter::write(std::string_view text) {
    out_ += '"';
    append_escaped(out_, text);
    out_ += '"';
}

void JsonWriter::write(bool value) { out_ += value ? "true" : "false"; }

void JsonWriter::write(std::uint64_t value) { out_ += std::to_string(value); }

void JsonWriter::write(std::int64_t value) { out_ += std::to_string(value); }

void JsonWriter::write(double value) {
    append_double(out_, value,
                  doubles_ == Doubles::kMetric ? kMetricForm : kRoundTripForm);
}

}  // namespace hpr::obs
