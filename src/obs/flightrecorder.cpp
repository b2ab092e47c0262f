#include "obs/flightrecorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "obs/buildinfo.h"
#include "obs/json.h"
#include "obs/timer.h"

namespace hpr::obs {

namespace {

double wall_seconds() {
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Previous cumulative value of `name` in a name-sorted vector.
template <typename T>
const T* find_previous(const std::vector<std::pair<std::string, T>>& previous,
                       std::string_view name) {
    const auto it = std::lower_bound(
        previous.begin(), previous.end(), name,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
    if (it == previous.end() || it->first != name) return nullptr;
    return &it->second;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config, Registry& registry)
    : config_(config),
      registry_(registry),
      samples_metric_(registry.counter(
          "hpr_flightrecorder_samples_total",
          "Registry snapshots taken by the flight recorder")),
      retained_metric_(registry.gauge(
          "hpr_flightrecorder_snapshots",
          "Snapshots currently retained in the flight-recorder ring")),
      sample_seconds_metric_(registry.histogram(
          "hpr_flightrecorder_sample_seconds",
          "Wall time of one flight-recorder sampling pass")) {
    if (!(config_.interval_seconds > 0.0)) {
        throw std::invalid_argument(
            "FlightRecorder: interval_seconds must be positive");
    }
    if (config_.capacity == 0) {
        throw std::invalid_argument("FlightRecorder: capacity must be nonzero");
    }
    ring_.resize(config_.capacity);
}

FlightRecorder::~FlightRecorder() { stop(); }

void FlightRecorder::set_on_sample(
    std::function<void(const FlightRecorder&, const RecorderSnapshot&)> hook) {
    std::lock_guard<std::mutex> lock{tick_mutex_};
    hook_ = std::move(hook);
}

void FlightRecorder::start() {
    if (running()) throw std::runtime_error("FlightRecorder: already running");
    {
        std::lock_guard<std::mutex> lock{wake_mutex_};
        stop_requested_ = false;
    }
    running_.store(true, std::memory_order_release);
    sampler_ = std::thread([this] { run_loop(); });
}

void FlightRecorder::stop() {
    {
        std::lock_guard<std::mutex> lock{wake_mutex_};
        stop_requested_ = true;
    }
    wake_.notify_all();
    if (sampler_.joinable()) sampler_.join();
    running_.store(false, std::memory_order_release);
}

void FlightRecorder::run_loop() {
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(config_.interval_seconds));
    for (;;) {
        (void)sample_now();
        std::unique_lock<std::mutex> lock{wake_mutex_};
        if (wake_.wait_for(lock, interval, [this] { return stop_requested_; })) {
            return;
        }
    }
}

RecorderSnapshot FlightRecorder::build_snapshot() {
    RecorderSnapshot snapshot;
    snapshot.wall_time = wall_seconds();
    snapshot.uptime_seconds = uptime_seconds();
    snapshot.interval_seconds =
        prev_uptime_ < 0.0 ? 0.0 : snapshot.uptime_seconds - prev_uptime_;

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
    registry_.visit([&](const Registry::Entry& entry) {
        MetricPoint point;
        point.kind = entry.kind;
        switch (entry.kind) {
            case MetricKind::kCounter: {
                point.value = entry.counter->value();
                const std::uint64_t* previous =
                    find_previous(prev_counters_, entry.name);
                // First sight of a metric contributes no delta: a rate
                // spike out of nowhere would be an artifact of lazy
                // registration, not of traffic.
                point.delta = previous != nullptr && point.value >= *previous
                                  ? point.value - *previous
                                  : 0;
                counters.emplace_back(entry.name, point.value);
                break;
            }
            case MetricKind::kGauge:
                point.level = entry.gauge->value();
                break;
            case MetricKind::kHistogram: {
                HistogramSnapshot current = entry.histogram->snapshot();
                point.count = current.count;
                const HistogramSnapshot* previous =
                    find_previous(prev_histograms_, entry.name);
                if (previous != nullptr && previous->count <= current.count &&
                    previous->counts.size() == current.counts.size()) {
                    // Per-interval distribution: the bucket-count deltas
                    // between consecutive cumulative snapshots ARE the
                    // histogram of this interval's observations, so the
                    // standard bucket interpolation yields interval
                    // quantiles.  Racing writers can skew one bucket by
                    // an observation or two — fine for monitoring.
                    HistogramSnapshot delta;
                    delta.bounds = current.bounds;
                    delta.counts.resize(current.counts.size());
                    for (std::size_t b = 0; b < current.counts.size(); ++b) {
                        delta.counts[b] =
                            current.counts[b] >= previous->counts[b]
                                ? current.counts[b] - previous->counts[b]
                                : 0;
                    }
                    delta.count = current.count - previous->count;
                    delta.sum = current.sum - previous->sum;
                    point.interval_count = delta.count;
                    point.interval_sum = delta.sum;
                    if (delta.count > 0) {
                        point.p50 = delta.quantile(0.50);
                        point.p95 = delta.quantile(0.95);
                        point.p99 = delta.quantile(0.99);
                    }
                }
                histograms.emplace_back(entry.name, std::move(current));
                break;
            }
        }
        snapshot.points.emplace_back(entry.name, point);
    });
    prev_counters_ = std::move(counters);
    prev_histograms_ = std::move(histograms);
    prev_uptime_ = snapshot.uptime_seconds;
    return snapshot;
}

RecorderSnapshot FlightRecorder::sample_now() {
    std::function<void(const FlightRecorder&, const RecorderSnapshot&)> hook;
    RecorderSnapshot snapshot;
    {
        std::lock_guard<std::mutex> tick{tick_mutex_};
        const Stopwatch watch;
        snapshot = build_snapshot();
        snapshot.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
        {
            std::lock_guard<std::mutex> lock{ring_mutex_};
            const std::size_t slot = (head_ + size_) % config_.capacity;
            ring_[slot] = snapshot;
            if (size_ < config_.capacity) {
                ++size_;
            } else {
                head_ = (head_ + 1) % config_.capacity;
            }
        }
        samples_metric_.increment();
        retained_metric_.set(static_cast<std::int64_t>(size()));
        sample_seconds_metric_.observe(watch.seconds());
        hook = hook_;
    }
    if (hook) hook(*this, snapshot);
    return snapshot;
}

std::vector<RecorderSnapshot> FlightRecorder::snapshots(
    std::size_t newest_n) const {
    std::lock_guard<std::mutex> lock{ring_mutex_};
    const std::size_t n = newest_n < size_ ? newest_n : size_;
    std::vector<RecorderSnapshot> out;
    out.reserve(n);
    for (std::size_t i = size_ - n; i < size_; ++i) {
        out.push_back(ring_[(head_ + i) % config_.capacity]);
    }
    return out;
}

std::vector<SeriesPoint> FlightRecorder::series(std::string_view metric,
                                                std::size_t newest_n) const {
    std::lock_guard<std::mutex> lock{ring_mutex_};
    std::vector<SeriesPoint> out;
    const std::size_t n = newest_n < size_ ? newest_n : size_;
    for (std::size_t i = size_ - n; i < size_; ++i) {
        const RecorderSnapshot& snapshot = ring_[(head_ + i) % config_.capacity];
        const auto it = std::lower_bound(
            snapshot.points.begin(), snapshot.points.end(), metric,
            [](const auto& entry, std::string_view key) {
                return entry.first < key;
            });
        if (it == snapshot.points.end() || it->first != metric) continue;
        SeriesPoint point;
        point.sequence = snapshot.sequence;
        point.wall_time = snapshot.wall_time;
        point.interval_seconds = snapshot.interval_seconds;
        point.point = it->second;
        out.push_back(point);
    }
    return out;
}

std::vector<std::pair<std::string, MetricKind>> FlightRecorder::metric_names()
    const {
    std::lock_guard<std::mutex> lock{ring_mutex_};
    std::vector<std::pair<std::string, MetricKind>> out;
    if (size_ == 0) return out;
    const RecorderSnapshot& newest =
        ring_[(head_ + size_ - 1) % config_.capacity];
    out.reserve(newest.points.size());
    for (const auto& [name, point] : newest.points) {
        out.emplace_back(name, point.kind);
    }
    return out;
}

std::size_t FlightRecorder::size() const {
    std::lock_guard<std::mutex> lock{ring_mutex_};
    return size_;
}

void write_point_fields(JsonWriter& out, const MetricPoint& point) {
    switch (point.kind) {
        case MetricKind::kCounter:
            out.field("value", point.value).field("delta", point.delta);
            break;
        case MetricKind::kGauge:
            out.field("level", point.level);
            break;
        case MetricKind::kHistogram:
            out.field("count", point.count)
                .field("interval_count", point.interval_count)
                .field("interval_sum", point.interval_sum)
                .field("p50", point.p50)
                .field("p95", point.p95)
                .field("p99", point.p99);
            break;
    }
}

std::string to_frame(const RecorderSnapshot& snapshot) {
    JsonWriter out;
    out.begin_object()
        .field("type", "snapshot")
        .field("seq", snapshot.sequence)
        .field("wall_time", snapshot.wall_time)
        .field("uptime", snapshot.uptime_seconds)
        .field("interval", snapshot.interval_seconds);
    for (const auto& [kind, section] :
         {std::pair{MetricKind::kCounter, "counters"},
          std::pair{MetricKind::kGauge, "gauges"},
          std::pair{MetricKind::kHistogram, "histograms"}}) {
        out.begin_object(section);
        for (const auto& [name, point] : snapshot.points) {
            if (point.kind != kind) continue;
            if (kind == MetricKind::kGauge) {
                out.field(name, point.level);  // a gauge is its bare level
                continue;
            }
            out.begin_object(name);
            write_point_fields(out, point);
            out.end_object();
        }
        out.end_object();
    }
    return out.end_object().take();
}

// ---------------------------------------------------------------------------
// BlackBox
//
// All state the signal handler touches is file-scope and lock-free.  The
// staging protocol is a crash-tolerant double buffer:
//
//   * publish() writes the NON-stable slot, then flips g_stable to it
//     (release store).  A slot therefore only becomes stable after it is
//     completely serialized, and is only rewritten after stability moved
//     to the other slot — at least one full publish (>= one recorder
//     interval) later.
//   * the handler sets g_crashing FIRST, then reads g_stable once
//     (acquire) and write(2)s that slot.  publish() checks g_crashing at
//     entry and before the flip/free, so no publish that starts after
//     the crash touches anything, and the one publish that may already
//     be in flight only ever writes the slot the handler is NOT reading.
//
// The handler itself uses only async-signal-safe calls: write, ftruncate,
// fsync, sigaction, raise.

namespace {

struct BlackBoxSlot {
    std::atomic<char*> data{nullptr};
    std::atomic<std::size_t> size{0};
    std::size_t capacity = 0;  ///< touched only by publish()
};

constexpr int kBlackBoxSignals[] = {SIGSEGV, SIGABRT, SIGBUS};
constexpr std::size_t kBlackBoxSignalCount = 3;

BlackBoxSlot g_slots[2];
std::atomic<int> g_stable{-1};  ///< index of the fully serialized slot, -1 none
std::atomic<int> g_blackbox_fd{-1};
std::atomic<bool> g_crashing{false};
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_staged_bytes{0};
std::atomic<std::uint64_t> g_publishes{0};
char g_crash_frames[kBlackBoxSignalCount][96];
std::size_t g_crash_frame_len[kBlackBoxSignalCount] = {0, 0, 0};
struct sigaction g_previous_actions[kBlackBoxSignalCount];

void write_fully(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t written = ::write(fd, data, n);
        if (written < 0) {
            if (errno == EINTR) continue;
            return;  // nothing more a dying handler can do
        }
        data += written;
        n -= static_cast<std::size_t>(written);
    }
}

int signal_index(int sig) {
    for (std::size_t i = 0; i < kBlackBoxSignalCount; ++i) {
        if (kBlackBoxSignals[i] == sig) return static_cast<int>(i);
    }
    return -1;
}

void blackbox_handler(int sig) {
    const bool already_crashing =
        g_crashing.exchange(true, std::memory_order_acq_rel);
    const int fd = g_blackbox_fd.load(std::memory_order_acquire);
    if (fd >= 0 && !already_crashing) {
        std::size_t total = 0;
        const int stable = g_stable.load(std::memory_order_acquire);
        if (stable >= 0) {
            const char* data =
                g_slots[stable].data.load(std::memory_order_acquire);
            const std::size_t n =
                g_slots[stable].size.load(std::memory_order_acquire);
            if (data != nullptr && n > 0) {
                write_fully(fd, data, n);
                total += n;
            }
        }
        const int index = signal_index(sig);
        if (index >= 0 && g_crash_frame_len[index] > 0) {
            write_fully(fd, g_crash_frames[index], g_crash_frame_len[index]);
            total += g_crash_frame_len[index];
        }
        // Trim the pre-sized reservation down to the bytes actually
        // dumped, then push them to disk before the process dies.
        [[maybe_unused]] const int trimmed =
            ::ftruncate(fd, static_cast<off_t>(total));
        ::fsync(fd);
    }
    // Re-raise with the default disposition so the exit status (and any
    // core dump policy) is exactly what an unhandled crash produces.
    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    ::sigemptyset(&dfl.sa_mask);
    ::sigaction(sig, &dfl, nullptr);
    ::raise(sig);
}

const char* signal_name(int sig) {
    switch (sig) {
        case SIGSEGV: return "SIGSEGV";
        case SIGABRT: return "SIGABRT";
        case SIGBUS: return "SIGBUS";
        default: return "UNKNOWN";
    }
}

}  // namespace

BlackBox& BlackBox::instance() {
    static BlackBox box;
    return box;
}

bool BlackBox::arm(const std::string& path, std::size_t presize_bytes) {
    disarm();
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    if (presize_bytes > 0) {
        // Reserve the space up front so the crash-time write cannot hit
        // ENOSPC; ftruncate (sparse) is the fallback when the filesystem
        // has no real reservation.
        if (::posix_fallocate(fd, 0, static_cast<off_t>(presize_bytes)) != 0) {
            [[maybe_unused]] const int sized =
                ::ftruncate(fd, static_cast<off_t>(presize_bytes));
        }
    }
    for (std::size_t i = 0; i < kBlackBoxSignalCount; ++i) {
        JsonWriter frame;
        frame.begin_object()
            .field("type", "crash")
            .field("signal", std::int64_t{kBlackBoxSignals[i]})
            .field("name", signal_name(kBlackBoxSignals[i]));
        const std::string text = frame.end_object().take() + '\n';
        g_crash_frame_len[i] = std::min(text.size(), sizeof g_crash_frames[i]);
        std::memcpy(g_crash_frames[i], text.data(), g_crash_frame_len[i]);
    }
    g_slots[0].size.store(0, std::memory_order_release);
    g_slots[1].size.store(0, std::memory_order_release);
    g_stable.store(-1, std::memory_order_release);
    g_staged_bytes.store(0, std::memory_order_relaxed);
    g_crashing.store(false, std::memory_order_release);
    g_blackbox_fd.store(fd, std::memory_order_release);

    struct sigaction action {};
    action.sa_handler = blackbox_handler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    for (std::size_t i = 0; i < kBlackBoxSignalCount; ++i) {
        ::sigaction(kBlackBoxSignals[i], &action, &g_previous_actions[i]);
    }
    g_armed.store(true, std::memory_order_release);
    return true;
}

void BlackBox::disarm() {
    if (!g_armed.exchange(false, std::memory_order_acq_rel)) return;
    for (std::size_t i = 0; i < kBlackBoxSignalCount; ++i) {
        ::sigaction(kBlackBoxSignals[i], &g_previous_actions[i], nullptr);
    }
    const int fd = g_blackbox_fd.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
        // An empty file is the "process exited cleanly" marker — the
        // pre-size padding would otherwise read as a truncated dump.
        [[maybe_unused]] const int trimmed = ::ftruncate(fd, 0);
        ::close(fd);
    }
    g_stable.store(-1, std::memory_order_release);
    g_staged_bytes.store(0, std::memory_order_relaxed);
    g_crashing.store(false, std::memory_order_release);
}

bool BlackBox::armed() const noexcept {
    return g_armed.load(std::memory_order_acquire);
}

void BlackBox::publish(std::string_view frames) {
    if (!armed() || g_crashing.load(std::memory_order_acquire)) return;
    const int stable = g_stable.load(std::memory_order_acquire);
    const int target = stable == 0 ? 1 : 0;
    BlackBoxSlot& slot = g_slots[target];
    if (slot.capacity < frames.size()) {
        const std::size_t grown_capacity = frames.size() + frames.size() / 2;
        char* grown = new char[grown_capacity];
        if (g_crashing.load(std::memory_order_acquire)) {
            delete[] grown;
            return;
        }
        char* old = slot.data.load(std::memory_order_relaxed);
        slot.size.store(0, std::memory_order_release);
        slot.data.store(grown, std::memory_order_release);
        slot.capacity = grown_capacity;
        delete[] old;
    }
    std::memcpy(slot.data.load(std::memory_order_relaxed), frames.data(),
                frames.size());
    slot.size.store(frames.size(), std::memory_order_release);
    if (g_crashing.load(std::memory_order_acquire)) return;
    g_stable.store(target, std::memory_order_release);
    g_staged_bytes.store(frames.size(), std::memory_order_relaxed);
    g_publishes.fetch_add(1, std::memory_order_relaxed);
}

std::size_t BlackBox::staged_bytes() const noexcept {
    return g_staged_bytes.load(std::memory_order_relaxed);
}

std::uint64_t BlackBox::publishes() const noexcept {
    return g_publishes.load(std::memory_order_relaxed);
}

}  // namespace hpr::obs
