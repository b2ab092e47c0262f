#include "obs/watchdog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json.h"

namespace hpr::obs {

namespace {

std::string format_value(double value, const char* unit) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%.4g%s", value, unit);
    return buffer;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
           2.0;
}

const MetricPoint* find_point(const RecorderSnapshot& snapshot,
                              std::string_view name) {
    const auto it = std::lower_bound(
        snapshot.points.begin(), snapshot.points.end(), name,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
    if (it == snapshot.points.end() || it->first != name) return nullptr;
    return &it->second;
}

/// Sum of a counter's per-interval deltas over the newest `n` snapshots.
std::uint64_t window_delta(const std::vector<RecorderSnapshot>& snapshots,
                           std::string_view name, std::size_t n) {
    std::uint64_t total = 0;
    const std::size_t begin = snapshots.size() > n ? snapshots.size() - n : 0;
    for (std::size_t i = begin; i < snapshots.size(); ++i) {
        const MetricPoint* point = find_point(snapshots[i], name);
        if (point != nullptr && point->kind == MetricKind::kCounter) {
            total += point->delta;
        }
    }
    return total;
}

/// Hit-rate collapse signal shared by both caches.
HealthSignal cache_signal(const char* name,
                          const std::vector<RecorderSnapshot>& snapshots,
                          std::string_view hits_metric,
                          std::string_view misses_metric,
                          const WatchdogConfig& config, double* rate_out) {
    HealthSignal signal;
    signal.name = name;
    signal.threshold = config.min_hit_rate;
    const std::uint64_t hits =
        window_delta(snapshots, hits_metric, config.recent_window);
    const std::uint64_t misses =
        window_delta(snapshots, misses_metric, config.recent_window);
    const std::uint64_t lookups = hits + misses;
    if (lookups < config.min_cache_lookups) {
        signal.detail = "only " + std::to_string(lookups) + " lookups in window (need " +
                        std::to_string(config.min_cache_lookups) + ") - not judged";
        *rate_out = -1.0;
        return signal;
    }
    signal.evaluated = true;
    signal.value =
        static_cast<double>(hits) / static_cast<double>(lookups);
    signal.firing = signal.value < config.min_hit_rate;
    signal.detail = "hit rate " + format_value(signal.value * 100.0, "%") +
                    " over " + std::to_string(lookups) + " lookups (floor " +
                    format_value(config.min_hit_rate * 100.0, "%") + ")";
    *rate_out = signal.value;
    return signal;
}

}  // namespace

Watchdog::Watchdog(WatchdogConfig config, Registry& registry)
    : config_(std::move(config)),
      evaluations_metric_(registry.counter(
          "hpr_health_evaluations_total",
          "Watchdog health evaluations performed")),
      ok_metric_(registry.gauge("hpr_health_ok",
                                "1 when no health signal is firing, else 0")),
      firing_metric_(registry.gauge("hpr_health_signals_firing",
                                    "Health signals currently firing")),
      p99_ratio_metric_(registry.gauge(
          "hpr_health_assess_p99_ratio_percent",
          "Recent assess p99 as percent of trailing baseline (100 = flat; "
          "-1 = not enough data)")),
      calibration_rate_metric_(registry.gauge(
          "hpr_health_calibration_hit_rate_percent",
          "Calibration-cache hit rate over the recent window (-1 = idle)")),
      refmodel_rate_metric_(registry.gauge(
          "hpr_health_refmodel_hit_rate_percent",
          "Reference-model-cache hit rate over the recent window (-1 = idle)")),
      ingest_stalled_metric_(registry.gauge(
          "hpr_health_ingest_flat_intervals",
          "Consecutive recorder intervals with zero store ingest")),
      heartbeat_lag_metric_(registry.gauge(
          "hpr_health_heartbeat_lag_micros",
          "Event-loop self-ping acknowledgement lag (-1 = no sample)")) {
    if (config_.baseline_window == 0 || config_.recent_window == 0) {
        throw std::invalid_argument("Watchdog: windows must be nonzero");
    }
    if (!(config_.p99_regression_ratio > 1.0)) {
        throw std::invalid_argument(
            "Watchdog: p99_regression_ratio must exceed 1");
    }
    if (config_.ingest_stall_intervals == 0) {
        throw std::invalid_argument(
            "Watchdog: ingest_stall_intervals must be nonzero");
    }
    if (!(config_.heartbeat_lag_budget_seconds > 0.0)) {
        throw std::invalid_argument(
            "Watchdog: heartbeat_lag_budget_seconds must be positive");
    }
    ok_metric_.set(1);
    p99_ratio_metric_.set(-1);
    calibration_rate_metric_.set(-1);
    refmodel_rate_metric_.set(-1);
    heartbeat_lag_metric_.set(-1);
}

void Watchdog::set_heartbeat_probe(std::function<double()> probe) {
    std::lock_guard<std::mutex> lock{mutex_};
    probe_ = std::move(probe);
}

HealthVerdict Watchdog::evaluate(const FlightRecorder& recorder) {
    std::lock_guard<std::mutex> lock{mutex_};
    const std::vector<RecorderSnapshot> snapshots =
        recorder.snapshots(config_.baseline_window + config_.recent_window);

    HealthVerdict verdict;
    if (!snapshots.empty()) {
        verdict.sequence = snapshots.back().sequence;
        verdict.wall_time = snapshots.back().wall_time;
        verdict.uptime_seconds = snapshots.back().uptime_seconds;
    }

    // --- assess_p99: recent-median interval p99 vs trailing baseline ---
    {
        HealthSignal signal;
        signal.name = "assess_p99";
        signal.threshold = config_.p99_regression_ratio;
        std::vector<double> baseline;
        std::vector<double> recent;
        const std::size_t recent_begin =
            snapshots.size() > config_.recent_window
                ? snapshots.size() - config_.recent_window
                : 0;
        for (std::size_t i = 0; i < snapshots.size(); ++i) {
            const MetricPoint* point =
                find_point(snapshots[i], config_.assess_metric);
            if (point == nullptr || point->kind != MetricKind::kHistogram ||
                point->interval_count < config_.min_latency_samples) {
                continue;
            }
            (i < recent_begin ? baseline : recent).push_back(point->p99);
        }
        if (baseline.size() < 3 || recent.empty()) {
            signal.detail = config_.assess_metric + ": " +
                            std::to_string(baseline.size()) +
                            " baseline / " + std::to_string(recent.size()) +
                            " recent qualified intervals - not judged";
        } else {
            const double base_p99 = median(baseline);
            const double recent_p99 = median(recent);
            signal.evaluated = base_p99 > 0.0;
            signal.value = base_p99 > 0.0 ? recent_p99 / base_p99 : 0.0;
            signal.firing =
                signal.evaluated && signal.value > config_.p99_regression_ratio;
            signal.detail = config_.assess_metric + " recent p99 " +
                            format_value(recent_p99 * 1e6, "us") + " vs baseline " +
                            format_value(base_p99 * 1e6, "us") + " (ratio " +
                            format_value(signal.value, "") + ", budget " +
                            format_value(config_.p99_regression_ratio, "x)");
        }
        p99_ratio_metric_.set(
            signal.evaluated
                ? static_cast<std::int64_t>(std::lround(signal.value * 100.0))
                : -1);
        verdict.signals.push_back(std::move(signal));
    }

    // --- cache hit-rate collapse -----------------------------------------
    {
        double rate = -1.0;
        verdict.signals.push_back(cache_signal(
            "calibration_hits", snapshots, "hpr_calibration_cache_hits_total",
            "hpr_calibration_cache_misses_total", config_, &rate));
        calibration_rate_metric_.set(
            rate < 0.0 ? -1
                       : static_cast<std::int64_t>(std::lround(rate * 100.0)));
    }
    {
        double rate = -1.0;
        verdict.signals.push_back(cache_signal(
            "refmodel_hits", snapshots, "hpr_refmodel_cache_hits_total",
            "hpr_refmodel_cache_misses_total", config_, &rate));
        refmodel_rate_metric_.set(
            rate < 0.0 ? -1
                       : static_cast<std::int64_t>(std::lround(rate * 100.0)));
    }

    // --- ingest stall ------------------------------------------------------
    {
        HealthSignal signal;
        signal.name = "ingest";
        signal.threshold = static_cast<double>(config_.ingest_stall_intervals);
        const MetricPoint* point =
            snapshots.empty()
                ? nullptr
                : find_point(snapshots.back(), "hpr_store_ingest_total");
        if (point == nullptr || point->kind != MetricKind::kCounter) {
            signal.detail = "hpr_store_ingest_total not recorded - not judged";
        } else {
            if (point->value > last_ingest_total_) {
                flat_intervals_ = 0;
                ingest_seen_ = true;
            } else if (ingest_seen_) {
                ++flat_intervals_;
            }
            last_ingest_total_ = point->value;
            signal.evaluated = ingest_seen_;
            signal.value = static_cast<double>(flat_intervals_);
            signal.firing = ingest_seen_ &&
                            flat_intervals_ >= config_.ingest_stall_intervals;
            signal.detail =
                ingest_seen_
                    ? std::to_string(flat_intervals_) +
                          " consecutive flat intervals (stall at " +
                          std::to_string(config_.ingest_stall_intervals) +
                          "); lifetime ingest " + std::to_string(point->value)
                    : "no ingest observed yet - not judged";
        }
        ingest_stalled_metric_.set(static_cast<std::int64_t>(flat_intervals_));
        verdict.signals.push_back(std::move(signal));
    }

    // --- event-loop heartbeat ---------------------------------------------
    {
        HealthSignal signal;
        signal.name = "heartbeat";
        signal.threshold = config_.heartbeat_lag_budget_seconds;
        double lag = -1.0;
        if (!probe_) {
            signal.detail = "no heartbeat probe installed - not judged";
        } else {
            lag = probe_();
            if (lag < 0.0) {
                signal.detail = "no ping acknowledged yet - not judged";
            } else {
                signal.evaluated = true;
                signal.value = lag;
                signal.firing = lag > config_.heartbeat_lag_budget_seconds;
                signal.detail =
                    "event loop acknowledged self-ping in " +
                    format_value(lag * 1e3, "ms") + " (budget " +
                    format_value(config_.heartbeat_lag_budget_seconds * 1e3,
                                 "ms)");
            }
        }
        heartbeat_lag_metric_.set(
            lag < 0.0 ? -1
                      : static_cast<std::int64_t>(std::lround(lag * 1e6)));
        verdict.signals.push_back(std::move(signal));
    }

    std::int64_t firing = 0;
    for (const HealthSignal& signal : verdict.signals) {
        if (signal.firing) ++firing;
    }
    verdict.healthy = firing == 0;
    ok_metric_.set(verdict.healthy ? 1 : 0);
    firing_metric_.set(firing);
    evaluations_metric_.increment();
    evaluation_count_.fetch_add(1, std::memory_order_relaxed);

    verdict_ = verdict;
    return verdict;
}

HealthVerdict Watchdog::last_verdict() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return verdict_;
}

std::uint64_t Watchdog::evaluations() const noexcept {
    return evaluation_count_.load(std::memory_order_relaxed);
}

std::string to_frame(const HealthVerdict& verdict) {
    JsonWriter out;
    out.begin_object()
        .field("type", "health")
        .field("seq", verdict.sequence)
        .field("wall_time", verdict.wall_time)
        .field("uptime", verdict.uptime_seconds)
        .field("healthy", verdict.healthy)
        .begin_array("signals");
    for (const HealthSignal& signal : verdict.signals) {
        out.begin_object()
            .field("name", signal.name)
            .field("evaluated", signal.evaluated)
            .field("firing", signal.firing)
            .field("value", signal.value)
            .field("threshold", signal.threshold)
            .field("detail", signal.detail)
            .end_object();
    }
    return out.end_array().end_object().take();
}

std::string render_blackbox(const FlightRecorder& recorder,
                            const Watchdog* watchdog, Tracer* tracer,
                            std::size_t snapshot_n, std::size_t trace_n) {
    std::string out;
    for (const RecorderSnapshot& snapshot : recorder.snapshots(snapshot_n)) {
        out += to_frame(snapshot);
        out += '\n';
    }
    if (watchdog != nullptr) {
        out += to_frame(watchdog->last_verdict());
        out += '\n';
    }
    if (tracer != nullptr) {
        std::vector<DecisionRecord> records = tracer->ring().snapshot();
        const std::size_t begin =
            records.size() > trace_n ? records.size() - trace_n : 0;
        for (std::size_t i = begin; i < records.size(); ++i) {
            JsonWriter frame;
            frame.begin_object()
                .field("type", "trace")
                .raw_field("record", to_jsonl(records[i]));
            out += frame.end_object().take();
            out += '\n';
        }
    }
    return out;
}

}  // namespace hpr::obs
