#include "net/endpoints.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/online.h"
#include "net/ingest.h"
#include "obs/buildinfo.h"
#include "obs/export.h"
#include "obs/json.h"

namespace hpr::net {

namespace {

using obs::IntrospectionPage;
using obs::IntrospectionRequest;

IntrospectionPage text_page(std::string body) {
    IntrospectionPage page;
    page.body = std::move(body);
    return page;
}

std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

void append_kv(std::string& out, std::string_view key, std::string_view value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

/// One /servers index row: store columns, then screener-bank columns
/// when the server holds a live stream.
void append_server_row(std::string& out, repsys::EntityId server,
                       std::size_t history,
                       const std::optional<serve::BatchAssessor::StreamInfo>& info) {
    out += std::to_string(server);
    out += " history=";
    out += std::to_string(history);
    if (info) {
        out += " screener=";
        out += core::to_string(info->state);
        out += " p_hat=";
        out += format_double(info->p_hat);
        out += " retained_windows=";
        out += std::to_string(info->retained_windows);
    } else {
        out += " screener=none";
    }
    out += '\n';
}

void register_metrics(obs::IntrospectionTree& tree, obs::Registry* registry) {
    tree.add("/metrics", "text/plain; version=0.0.4; charset=utf-8",
             "Prometheus text exposition of the obs registry",
             [registry](const IntrospectionRequest&) {
                 obs::publish_uptime(*registry);
                 IntrospectionPage page;
                 page.content_type = "text/plain; version=0.0.4; charset=utf-8";
                 page.body = obs::to_prometheus(*registry);
                 return page;
             });
    tree.add("/metrics.json", "application/json",
             "JSON snapshot of the obs registry (histogram percentiles included)",
             [registry](const IntrospectionRequest&) {
                 obs::publish_uptime(*registry);
                 IntrospectionPage page;
                 page.content_type = "application/json";
                 page.body = obs::to_json(*registry);
                 return page;
             });
}

void register_traces(obs::IntrospectionTree& tree, obs::Tracer* tracer) {
    tree.add(
        "/traces", "application/x-ndjson",
        "Retained decision records as JSONL; ?n=N newest, ?server=ID filter",
        [tracer](const IntrospectionRequest& request) {
            std::vector<obs::DecisionRecord> records =
                tracer->ring().snapshot();
            if (const auto server = request.param("server")) {
                std::uint64_t id = 0;
                if (!parse_decimal_u64(*server, id)) {
                    IntrospectionPage page;
                    page.status = 400;
                    page.body = "bad 'server' parameter: " + *server + "\n";
                    return page;
                }
                std::erase_if(records, [id](const obs::DecisionRecord& record) {
                    return record.server != id;
                });
            }
            if (const auto n = request.param("n")) {
                std::uint64_t keep = 0;
                if (!parse_decimal_u64(*n, keep)) {
                    IntrospectionPage page;
                    page.status = 400;
                    page.body = "bad 'n' parameter: " + *n + "\n";
                    return page;
                }
                if (records.size() > keep) {
                    records.erase(records.begin(),
                                  records.end() -
                                      static_cast<std::ptrdiff_t>(keep));
                }
            }
            IntrospectionPage page;
            page.content_type = "application/x-ndjson";
            for (const obs::DecisionRecord& record : records) {
                page.body += obs::to_jsonl(record);
                page.body += '\n';
            }
            return page;
        });
}

void register_store(obs::IntrospectionTree& tree,
                    const repsys::FeedbackStore* store) {
    tree.add("/store", "text/plain; charset=utf-8",
             "FeedbackStore per-shard occupancy",
             [store](const IntrospectionRequest&) {
                 const std::vector<repsys::FeedbackStore::ShardOccupancy>
                     occupancy = store->shard_occupancy();
                 std::string body = "# shards=" +
                                    std::to_string(occupancy.size()) +
                                    " servers=" +
                                    std::to_string(store->server_count()) +
                                    " feedbacks=" +
                                    std::to_string(store->size()) + "\n";
                 for (std::size_t i = 0; i < occupancy.size(); ++i) {
                     body += "shard=" + std::to_string(i) +
                             " servers=" + std::to_string(occupancy[i].servers) +
                             " feedbacks=" +
                             std::to_string(occupancy[i].feedbacks) + "\n";
                 }
                 return text_page(std::move(body));
             });
}

void register_servers(obs::IntrospectionTree& tree,
                      const repsys::FeedbackStore* store,
                      const serve::BatchAssessor* assessor) {
    tree.add_prefix(
        "/servers", "text/plain; charset=utf-8",
        "Known servers (/servers) and one server's live state (/servers/<id>)",
        [store, assessor](const IntrospectionRequest& request) {
            if (request.path == "/servers") {
                const std::vector<repsys::EntityId> servers = store->servers();
                std::uint64_t limit = servers.size();
                if (const auto parameter = request.param("limit")) {
                    if (!parse_decimal_u64(*parameter, limit)) {
                        IntrospectionPage page;
                        page.status = 400;
                        page.body =
                            "bad 'limit' parameter: " + *parameter + "\n";
                        return page;
                    }
                }
                std::string body =
                    "# servers=" + std::to_string(servers.size()) +
                    " feedbacks=" + std::to_string(store->size()) +
                    " streams=" +
                    std::to_string(assessor == nullptr
                                       ? 0
                                       : assessor->tracked_streams()) +
                    "\n";
                std::uint64_t shown = 0;
                for (const repsys::EntityId server : servers) {
                    if (shown++ >= limit) break;
                    append_server_row(
                        body, server,
                        store->history_length(server).value_or(0),
                        assessor == nullptr ? std::nullopt
                                            : assessor->stream_info(server));
                }
                return text_page(std::move(body));
            }

            // "/servers/<id>"
            std::uint64_t parsed = 0;
            if (request.path.size() < 10 ||
                !parse_decimal_u64(std::string_view{request.path}.substr(9), parsed,
                                   std::numeric_limits<repsys::EntityId>::max())) {
                IntrospectionPage page;
                page.status = 404;
                page.body = "not a server id: " + request.path + "\n";
                return page;
            }
            const auto id = static_cast<repsys::EntityId>(parsed);
            const std::optional<std::size_t> history =
                store->history_length(id);
            const std::optional<serve::BatchAssessor::StreamInfo> info =
                assessor == nullptr ? std::nullopt : assessor->stream_info(id);
            if (!history && !info) {
                IntrospectionPage page;
                page.status = 404;
                page.body = "unknown server: " + std::to_string(id) + "\n";
                return page;
            }
            std::string body;
            append_kv(body, "server", std::to_string(id));
            append_kv(body, "history_length",
                      std::to_string(history.value_or(0)));
            append_kv(body, "store_shard",
                      std::to_string(store->shard_of(id)));
            if (info) {
                append_kv(body, "screener_state", core::to_string(info->state));
                append_kv(body, "transactions",
                          std::to_string(info->transactions));
                append_kv(body, "windows", std::to_string(info->windows));
                append_kv(body, "retained_windows",
                          std::to_string(info->retained_windows));
                append_kv(body, "horizon", std::to_string(info->horizon));
                append_kv(body, "evaluations",
                          std::to_string(info->evaluations));
                append_kv(body, "failing_streak",
                          std::to_string(info->failing_streak));
                append_kv(body, "passing_streak",
                          std::to_string(info->passing_streak));
                append_kv(body, "p_hat", format_double(info->p_hat));
                append_kv(body, "memory_bytes",
                          std::to_string(info->memory_bytes));
            } else {
                append_kv(body, "screener_state", "none");
            }
            return text_page(std::move(body));
        });
}

void register_calibration(obs::IntrospectionTree& tree,
                          std::shared_ptr<const stats::Calibrator> calibrator) {
    tree.add("/calibration", "text/plain; charset=utf-8",
             "Calibrator cache statistics (hits/misses/joins/in-flight)",
             [calibrator = std::move(calibrator)](const IntrospectionRequest&) {
                 const stats::CacheStats stats = calibrator->stats();
                 std::string body;
                 append_kv(body, "hits", std::to_string(stats.hits));
                 append_kv(body, "misses", std::to_string(stats.misses));
                 append_kv(body, "single_flight_joins",
                           std::to_string(stats.single_flight_joins));
                 append_kv(body, "in_flight", std::to_string(stats.in_flight));
                 append_kv(body, "cache_entries",
                           std::to_string(stats.entries));
                 return text_page(std::move(body));
             });
}

void register_timeseries(obs::IntrospectionTree& tree,
                         const obs::FlightRecorder* recorder) {
    tree.add(
        "/timeseries", "application/json",
        "Flight-recorder ring: metric index, or ?metric=NAME series (?n=N newest)",
        [recorder](const IntrospectionRequest& request) {
            IntrospectionPage page;
            page.content_type = "application/json";
            std::uint64_t keep = UINT64_MAX;
            if (const auto n = request.param("n")) {
                if (!parse_decimal_u64(*n, keep)) {
                    page.status = 400;
                    page.content_type = "text/plain; charset=utf-8";
                    page.body = "bad 'n' parameter: " + *n + "\n";
                    return page;
                }
            }
            const auto metric = request.param("metric");
            obs::JsonWriter out;
            if (!metric) {
                // Index page: ring shape plus every metric in the newest
                // snapshot, so a client can discover what it may query.
                out.begin_object()
                    .field("interval_seconds", recorder->interval_seconds())
                    .field("capacity", recorder->capacity())
                    .field("size", recorder->size())
                    .field("samples_taken", recorder->samples_taken())
                    .begin_array("metrics");
                for (const auto& [name, kind] : recorder->metric_names()) {
                    out.begin_object()
                        .field("name", name)
                        .field("kind", obs::to_string(kind))
                        .end_object();
                }
                page.body = out.end_array().end_object().take();
                return page;
            }
            const std::vector<obs::SeriesPoint> series =
                recorder->series(*metric, keep);
            if (series.empty()) {
                page.status = 404;
                page.content_type = "text/plain; charset=utf-8";
                page.body = "no recorded series for metric: " + *metric + "\n";
                return page;
            }
            out.begin_object()
                .field("metric", *metric)
                .field("kind", obs::to_string(series.front().point.kind))
                .begin_array("points");
            for (const obs::SeriesPoint& point : series) {
                out.begin_object()
                    .field("seq", point.sequence)
                    .field("wall_time", point.wall_time)
                    .field("interval", point.interval_seconds);
                obs::write_point_fields(out, point.point);
                out.end_object();
            }
            page.body = out.end_array().end_object().take();
            return page;
        });
}

void register_health(obs::IntrospectionTree& tree,
                     const obs::Watchdog* watchdog) {
    tree.add(
        "/health", "text/plain; charset=utf-8",
        "Watchdog verdict: 200 ok / 503 degraded, one reasoned line per signal",
        [watchdog](const IntrospectionRequest&) {
            const obs::HealthVerdict verdict = watchdog->last_verdict();
            IntrospectionPage page;
            // 503 lets a load balancer act on the verdict without
            // parsing the body.
            page.status = verdict.healthy ? 200 : 503;
            std::string body;
            append_kv(body, "verdict", verdict.healthy ? "ok" : "degraded");
            append_kv(body, "sequence", std::to_string(verdict.sequence));
            append_kv(body, "uptime_seconds",
                      format_double(verdict.uptime_seconds));
            for (const obs::HealthSignal& signal : verdict.signals) {
                body += "signal ";
                body += signal.name;
                body += signal.firing      ? " state=firing"
                        : signal.evaluated ? " state=ok"
                                           : " state=pending";
                body += " detail=\"";
                body += signal.detail;
                body += "\"\n";
            }
            page.body = std::move(body);
            return page;
        });
}

}  // namespace

void register_introspection(obs::IntrospectionTree& tree,
                            IntrospectionSources sources) {
    tree.add("/healthz", "text/plain; charset=utf-8", "liveness probe",
             [](const IntrospectionRequest&) { return text_page("ok\n"); });
    if (sources.registry != nullptr) {
        register_metrics(tree, sources.registry);
    }
    if (sources.tracer != nullptr) {
        register_traces(tree, sources.tracer);
    }
    if (sources.store != nullptr) {
        register_store(tree, sources.store);
        register_servers(tree, sources.store, sources.assessor);
    }
    if (sources.calibrator != nullptr) {
        register_calibration(tree, std::move(sources.calibrator));
    }
    if (sources.recorder != nullptr) {
        register_timeseries(tree, sources.recorder);
    }
    if (sources.watchdog != nullptr) {
        register_health(tree, sources.watchdog);
    }
}

HttpHandler make_http_handler(const obs::IntrospectionTree& tree,
                              IngestService* ingest) {
    return [&tree, ingest](const HttpRequest& request) {
        if (request.method == "POST") {
            if (ingest != nullptr && request.path == "/ingest") {
                return ingest->handle_ingest(request);
            }
            HttpResponse response;
            response.status = 404;
            response.body = "no POST endpoint: " + request.path + "\n";
            return response;
        }
        const IntrospectionPage page = tree.get(request.target);
        HttpResponse response;
        response.status = page.status;
        response.content_type = page.content_type;
        response.body = page.body;
        return response;
    };
}

}  // namespace hpr::net
