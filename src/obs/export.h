#ifndef HPR_OBS_EXPORT_H
#define HPR_OBS_EXPORT_H

/// \file export.h
/// Registry exporters: render every metric of a Registry as
///
///  * Prometheus text exposition format (to_prometheus) — counters carry
///    `# TYPE <name> counter` headers, histograms expand into the standard
///    `_bucket{le="..."}` / `_sum` / `_count` series, so the output can be
///    scraped verbatim; or
///  * a single JSON object (to_json) — machine-readable snapshots for
///    benches and tests, with p50/p95/p99 precomputed per histogram,
///    written by the obs JSON writer (obs/json.h, which also holds
///    escape_json).
///
/// Both render a point-in-time snapshot; neither blocks recording.

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace hpr::obs {

/// Prometheus text exposition (version 0.0.4) of every metric, in name
/// order.  `help` strings become `# HELP` lines when non-empty; names and
/// help text are passed through escape_prometheus() so a stray newline or
/// backslash can never corrupt the line-oriented exposition.
[[nodiscard]] std::string to_prometheus(const Registry& registry);

/// Escape text for the Prometheus exposition format: `\\` -> `\\\\` and
/// newline -> `\\n`, per the HELP-line escaping rules.  Registry enforces
/// `[a-zA-Z_][a-zA-Z0-9_]*` names, but the exporter escapes defensively
/// anyway so it stays safe for callers that format ad-hoc text.
[[nodiscard]] std::string escape_prometheus(std::string_view text);

/// JSON object `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
/// Histograms carry count, sum, mean, p50/p95/p99 and the cumulative
/// bucket table.
[[nodiscard]] std::string to_json(const Registry& registry);

}  // namespace hpr::obs

#endif  // HPR_OBS_EXPORT_H
