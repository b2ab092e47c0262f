#include "obs/export.h"

#include <sstream>

#include "obs/json.h"

namespace hpr::obs {

namespace {

void append_prometheus_histogram(std::ostringstream& out, const Registry::Entry& entry) {
    const std::string name = escape_prometheus(entry.name);
    const HistogramSnapshot snap = entry.histogram->snapshot();
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        cumulative += snap.counts[b];
        const std::string le =
            b < snap.bounds.size() ? format_metric(snap.bounds[b]) : "+Inf";
        out << name << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    out << name << "_sum " << format_metric(snap.sum) << '\n';
    out << name << "_count " << snap.count << '\n';
}

/// Prometheus label-VALUE escaping (the exposition format escapes label
/// values differently from help text: backslash, double-quote, newline).
std::string escape_prometheus_label(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c; break;
        }
    }
    return out;
}

/// `{key="value",...}` suffix of a labeled sample line; empty when the
/// metric carries no labels.
std::string prometheus_label_suffix(const Registry::LabelSet& labels) {
    if (labels.empty()) return {};
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i != 0) out += ',';
        out += escape_prometheus(labels[i].first);
        out += "=\"";
        out += escape_prometheus_label(labels[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

}  // namespace

std::string escape_prometheus(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            default: out += c; break;
        }
    }
    return out;
}

std::string to_prometheus(const Registry& registry) {
    std::ostringstream out;
    registry.visit([&out](const Registry::Entry& entry) {
        // Registry::valid_name rejects anything outside
        // [a-zA-Z_][a-zA-Z0-9_]*, but escape anyway: exposition is
        // line-oriented, and an embedded newline (however it got there)
        // would otherwise inject arbitrary sample lines into the scrape.
        const std::string name = escape_prometheus(entry.name);
        if (!entry.help.empty()) {
            out << "# HELP " << name << ' ' << escape_prometheus(entry.help) << '\n';
        }
        out << "# TYPE " << name << ' ' << to_string(entry.kind) << '\n';
        switch (entry.kind) {
            case MetricKind::kCounter:
                out << name << ' ' << entry.counter->value() << '\n';
                break;
            case MetricKind::kGauge:
                out << name << prometheus_label_suffix(entry.labels) << ' '
                    << entry.gauge->value() << '\n';
                break;
            case MetricKind::kHistogram:
                append_prometheus_histogram(out, entry);
                break;
        }
    });
    return out.str();
}

std::string to_json(const Registry& registry) {
    JsonWriter out;
    out.begin_object().begin_object("counters");
    registry.visit([&out](const Registry::Entry& entry) {
        if (entry.kind != MetricKind::kCounter) return;
        out.field(entry.name, entry.counter->value());
    });
    out.end_object().begin_object("gauges");
    registry.visit([&out](const Registry::Entry& entry) {
        if (entry.kind != MetricKind::kGauge) return;
        if (entry.labels.empty()) {
            out.field(entry.name, entry.gauge->value());
            return;
        }
        // Info gauges keep their labels machine-readable:
        // {"value": v, "labels": {...}} instead of a bare v.
        out.begin_object(entry.name)
            .field("value", entry.gauge->value())
            .begin_object("labels");
        for (const auto& [key, value] : entry.labels) out.field(key, value);
        out.end_object().end_object();
    });
    out.end_object().begin_object("histograms");
    registry.visit([&out](const Registry::Entry& entry) {
        if (entry.kind != MetricKind::kHistogram) return;
        const HistogramSnapshot snap = entry.histogram->snapshot();
        out.begin_object(entry.name)
            .field("count", snap.count)
            .field("sum", snap.sum)
            .field("mean", snap.mean())
            .field("p50", snap.quantile(0.50))
            .field("p95", snap.quantile(0.95))
            .field("p99", snap.quantile(0.99))
            .begin_array("buckets");
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < snap.counts.size(); ++b) {
            cumulative += snap.counts[b];
            out.begin_array()
                .element(b < snap.bounds.size() ? format_metric(snap.bounds[b])
                                                : std::string{"+Inf"})
                .element(cumulative)
                .end_array();
        }
        out.end_array().end_object();
    });
    return out.end_object().end_object().take();
}

}  // namespace hpr::obs
