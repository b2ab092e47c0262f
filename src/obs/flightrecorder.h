#ifndef HPR_OBS_FLIGHTRECORDER_H
#define HPR_OBS_FLIGHTRECORDER_H

/// \file flightrecorder.h
/// Temporal self-observation for the serving daemon: a flight recorder
/// that turns the registry's *instantaneous* metrics into a bounded
/// in-memory time series, and a crash black-box that preserves the
/// final seconds of that telemetry when the process dies.
///
/// `/metrics` is a point-in-time scrape: it can say the daemon is slow
/// *now*, but not when it started degrading, and it says nothing at all
/// once the process is gone.  Two pieces close that gap:
///
///  * **FlightRecorder** — a sampler thread snapshots a Registry on a
///    fixed cadence into a ring of `RecorderSnapshot`s.  Counters are
///    stored as cumulative value + per-interval delta (rates derive as
///    delta/interval), gauges as levels, histograms as cumulative count
///    plus *per-interval* count/sum/p50/p95/p99 computed from the
///    bucket-count deltas between consecutive samples — the registry's
///    histograms are cumulative-forever, so only the recorder can say
///    what the p99 of the LAST second was.  The ring is bounded
///    (capacity × metric count), oldest snapshot evicted first, so a
///    daemon that runs for months holds a fixed-size recent history.
///    Served live via `/timeseries?metric=&n=` (net/endpoints.h) and
///    consumed by the health watchdog (obs/watchdog.h).
///
///  * **BlackBox** — a pre-opened, pre-sized dump file plus handlers
///    for SIGSEGV/SIGABRT/SIGBUS.  The sampler thread *pre-serializes*
///    the forensic payload (recent snapshots, health verdict, trace
///    ring) into one of two staging buffers and atomically publishes
///    the completed one; the signal handler only `write(2)`s the stable
///    buffer, appends a pre-serialized crash frame, `ftruncate`s and
///    `fsync`s — every call on the async-signal-safe list — then
///    re-raises with the default disposition so the exit status still
///    tells the truth.  A post-mortem starts from the dump file instead
///    of from nothing (`scripts/validate_blackbox.py` checks the frame
///    schema; docs/observability.md has the triage runbook).
///
/// Cost model: sampling is one `Registry::visit` every
/// `interval_seconds` on a dedicated thread — the assessment hot path
/// never runs recorder code.  bench/flight_recorder measures the
/// steady-state interference and enforces a <2% budget on assess p99.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace hpr::obs {

/// One metric's contribution to one snapshot.  Which fields are
/// meaningful depends on `kind`; the others stay zero.
struct MetricPoint {
    MetricKind kind = MetricKind::kCounter;

    // kind == kCounter
    std::uint64_t value = 0;  ///< cumulative count at sample time
    std::uint64_t delta = 0;  ///< increase since the previous snapshot

    // kind == kGauge
    std::int64_t level = 0;

    // kind == kHistogram
    std::uint64_t count = 0;           ///< cumulative observations
    std::uint64_t interval_count = 0;  ///< observations in this interval
    double interval_sum = 0.0;         ///< sum of this interval's observations
    double p50 = 0.0;                  ///< interval quantiles (bucket-delta
    double p95 = 0.0;                  ///  interpolation; 0 when the interval
    double p99 = 0.0;                  ///  saw no observations)
};

/// One full-registry sample.
struct RecorderSnapshot {
    std::uint64_t sequence = 0;    ///< 1-based, monotone per recorder
    double wall_time = 0.0;        ///< seconds since the Unix epoch
    double uptime_seconds = 0.0;   ///< process uptime at sample time
    double interval_seconds = 0.0; ///< measured gap to the previous sample
    std::vector<std::pair<std::string, MetricPoint>> points;  ///< name order
};

/// One metric's value at one snapshot, for series queries.
struct SeriesPoint {
    std::uint64_t sequence = 0;
    double wall_time = 0.0;
    double interval_seconds = 0.0;
    MetricPoint point;
};

struct FlightRecorderConfig {
    /// Sampler cadence.  The watchdog's regression baselines and the
    /// black-box's "final seconds" resolution are both one snapshot per
    /// interval.
    /// \throws std::invalid_argument (from the constructor) unless > 0.
    double interval_seconds = 1.0;

    /// Snapshot ring bound; the oldest snapshot is evicted when full.
    /// \throws std::invalid_argument (from the constructor) if zero.
    std::size_t capacity = 256;
};

/// The sampler + ring.  Thread-safe: start/stop/sample_now from any
/// thread (ticks serialize on an internal mutex), readers
/// (snapshots/series/metric_names) never block the sampled registry.
class FlightRecorder {
public:
    explicit FlightRecorder(FlightRecorderConfig config = {},
                            Registry& registry = default_registry());

    /// Stops the sampler if still running.
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Spawn the sampler thread (one tick immediately, then every
    /// interval).  \throws std::runtime_error if already started.
    void start();

    /// Stop and join the sampler thread.  Idempotent.
    void stop();

    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }

    /// Take one sample synchronously (the sampler thread calls this;
    /// tests drive deterministic ticks through it without a thread).
    /// Returns a copy of the snapshot appended to the ring.
    RecorderSnapshot sample_now();

    /// Hook invoked after every tick (sampler thread or the sample_now
    /// caller), outside the ring lock — the watchdog evaluates and the
    /// black-box publishes from here.  Set before start().
    void set_on_sample(
        std::function<void(const FlightRecorder&, const RecorderSnapshot&)> hook);

    /// The newest `newest_n` snapshots (all retained when larger),
    /// oldest first.
    [[nodiscard]] std::vector<RecorderSnapshot> snapshots(
        std::size_t newest_n = SIZE_MAX) const;

    /// One metric's trajectory over the newest `newest_n` snapshots,
    /// oldest first.  Empty when the metric never appeared.
    [[nodiscard]] std::vector<SeriesPoint> series(
        std::string_view metric, std::size_t newest_n = SIZE_MAX) const;

    /// Metric names present in the newest snapshot (name order), with
    /// their kinds.  Empty before the first tick.
    [[nodiscard]] std::vector<std::pair<std::string, MetricKind>> metric_names()
        const;

    [[nodiscard]] std::size_t capacity() const noexcept {
        return config_.capacity;
    }
    [[nodiscard]] double interval_seconds() const noexcept {
        return config_.interval_seconds;
    }
    /// Retained snapshots (<= capacity).
    [[nodiscard]] std::size_t size() const;
    /// Lifetime ticks taken.
    [[nodiscard]] std::uint64_t samples_taken() const noexcept {
        return sequence_.load(std::memory_order_relaxed);
    }

private:
    void run_loop();
    RecorderSnapshot build_snapshot();

    FlightRecorderConfig config_;
    Registry& registry_;

    // Recorder self-telemetry, resolved once at construction so the
    // metric set a CI inventory sees is deterministic.
    Counter& samples_metric_;
    Gauge& retained_metric_;
    Histogram& sample_seconds_metric_;

    mutable std::mutex ring_mutex_;
    std::vector<RecorderSnapshot> ring_;  ///< ring_[.. head_) oldest-first
    std::size_t head_ = 0;                ///< index of the oldest snapshot
    std::size_t size_ = 0;

    std::mutex tick_mutex_;  ///< serializes ticks (prev_* state below)
    // Previous cumulative values, keyed by metric name — the delta and
    // interval-quantile inputs.  Touched only under tick_mutex_.
    std::vector<std::pair<std::string, std::uint64_t>> prev_counters_;
    std::vector<std::pair<std::string, HistogramSnapshot>> prev_histograms_;
    double prev_uptime_ = -1.0;  ///< < 0 before the first tick

    std::function<void(const FlightRecorder&, const RecorderSnapshot&)> hook_;

    std::thread sampler_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> sequence_{0};
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stop_requested_ = false;  ///< guarded by wake_mutex_
};

class JsonWriter;

/// Write one point's fields into the open JSON object: counter `value`,
/// `delta`; gauge `level`; histogram `count`, `interval_count`,
/// `interval_sum`, `p50`, `p95`, `p99`.  The snapshot frame below and
/// the `/timeseries` points (net/endpoints.h) both render points so.
void write_point_fields(JsonWriter& out, const MetricPoint& point);

/// One-line JSON frame of a snapshot for the black-box file:
/// `{"type":"snapshot","seq":..,"wall_time":..,"uptime":..,"interval":..,
///   "counters":{name:{"value":..,"delta":..}},"gauges":{name:level},
///   "histograms":{name:{"count":..,"interval_count":..,"interval_sum":..,
///   "p50":..,"p95":..,"p99":..}}}` (no trailing newline).
[[nodiscard]] std::string to_frame(const RecorderSnapshot& snapshot);

/// The crash black-box.  One per process (the signal handler needs
/// global state); arm() installs handlers, publish() stages bytes,
/// the handlers dump and re-raise.
///
/// Concurrency contract: publish() is called from one thread at a time
/// (the recorder's on_sample hook).  The handler may fire on ANY thread
/// at ANY point; the double-buffer protocol guarantees it always reads
/// a completely serialized staging buffer (see flightrecorder.cpp).
class BlackBox {
public:
    /// The process-wide instance.
    [[nodiscard]] static BlackBox& instance();

    /// Open (create/truncate) and pre-size `path`, then install the
    /// SIGSEGV/SIGABRT/SIGBUS handlers.  Pre-sizing reserves the disk
    /// space up front so the crash-time write cannot fail on ENOSPC.
    /// \returns false (file untouched beyond a failed open) on error.
    [[nodiscard]] bool arm(const std::string& path,
                           std::size_t presize_bytes = std::size_t{1} << 20);

    /// Restore the previous signal dispositions, truncate the dump file
    /// to empty (no crash happened) and close it.  Idempotent.
    void disarm();

    [[nodiscard]] bool armed() const noexcept;

    /// Stage `frames` (newline-terminated lines, e.g. from
    /// obs::render_blackbox) as the bytes a crash would dump.  NOT
    /// async-signal-safe itself — call from the recorder hook, never
    /// from a handler.
    void publish(std::string_view frames);

    /// Bytes currently staged / lifetime publishes, for tests and the
    /// daemon's drain summary.
    [[nodiscard]] std::size_t staged_bytes() const noexcept;
    [[nodiscard]] std::uint64_t publishes() const noexcept;

private:
    BlackBox() = default;
};

}  // namespace hpr::obs

#endif  // HPR_OBS_FLIGHTRECORDER_H
