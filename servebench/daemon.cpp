// The system under test: the reputation daemon assembled from the
// library exactly as examples/reputation_server --listen assembles it
// (same store, assessor, calibration warm start, tracer, flight
// recorder, watchdog, IngestService behind IngestGate), without the
// example's own synthetic feed loop, so the only load is the
// benchmark's.
//
//   servebench_daemon [--spans PATH]
//
// Prints "port <n>" once the HTTP front-end is listening on an
// ephemeral loopback port.  SIGTERM/SIGINT drain and exit 0.
//
// With --spans, the HttpHandler returned by net::make_http_handler is
// wrapped.  Once SIGUSR1 arrives, time is cut into 250 ms slices that
// alternate traced and untraced, starting traced, so one run yields both
// the spans and an interleaved, paired measure of their cost.  In a
// traced slice every /ingest and /assess request carrying an
// X-Request-Id header records one span: wall time and event-loop-thread
// CPU time of the handler, and the gate's pending records at dispatch.
// Spans stay in memory and are written to PATH as CSV (after a
// "# epoch_ns=<n> slice_ns=<n>" line) once the server has stopped.

#include <pthread.h>
#include <signal.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "config.h"
#include "net/endpoints.h"
#include "net/http_server.h"
#include "net/ingest.h"
#include "obs/buildinfo.h"
#include "obs/flightrecorder.h"
#include "obs/introspection.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "repsys/store.h"

using namespace hpr;

namespace {

struct Span {
    std::uint64_t id = 0;
    char kind = '?';  ///< 'i' = POST /ingest, 'a' = GET /assess
    std::int64_t start_ns = 0;  ///< CLOCK_MONOTONIC
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;    ///< event-loop thread CPU
    std::size_t gate_pending = 0;
};

constexpr std::int64_t kSliceNs = 250'000'000;

std::int64_t clock_ns(clockid_t clock) {
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Records spans from the event-loop thread only; read after it joined.
class SpanRecorder {
public:
    SpanRecorder() { spans_.reserve(std::size_t{1} << 20); }

    void enable() noexcept {
        epoch_ns_.store(clock_ns(CLOCK_MONOTONIC), std::memory_order_relaxed);
        enabled_.store(true, std::memory_order_release);
    }

    net::HttpHandler wrap(net::HttpHandler inner, const net::IngestGate& gate) {
        return [this, inner = std::move(inner), &gate](const net::HttpRequest& request) {
            if (!enabled_.load(std::memory_order_acquire)) return inner(request);
            const std::int64_t since =
                clock_ns(CLOCK_MONOTONIC) - epoch_ns_.load(std::memory_order_relaxed);
            if ((since / kSliceNs) % 2 != 0) return inner(request);
            Span span;
            span.kind = request.method == "POST" && request.path == "/ingest" ? 'i'
                        : request.path == "/assess"                           ? 'a'
                                                                              : '?';
            const auto id = request.header("X-Request-Id");
            span.gate_pending = gate.pending();
            // The CPU clock reads sit outside the wall-clock window.
            const std::int64_t cpu0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
            span.start_ns = clock_ns(CLOCK_MONOTONIC);
            net::HttpResponse response = inner(request);
            span.wall_ns = clock_ns(CLOCK_MONOTONIC) - span.start_ns;
            span.cpu_ns = clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
            if (id && span.kind != '?') {
                span.id = std::strtoull(id->c_str(), nullptr, 10);
                spans_.push_back(span);
            }
            return response;
        };
    }

    bool write(const std::string& path) const {
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr) return false;
        std::fprintf(out, "# epoch_ns=%lld slice_ns=%lld\n",
                     static_cast<long long>(epoch_ns_.load(std::memory_order_relaxed)),
                     static_cast<long long>(kSliceNs));
        std::fprintf(out, "id,kind,start_ns,wall_ns,cpu_ns,gate_pending\n");
        for (const Span& s : spans_) {
            std::fprintf(out, "%llu,%c,%lld,%lld,%lld,%zu\n",
                         static_cast<unsigned long long>(s.id), s.kind,
                         static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.wall_ns),
                         static_cast<long long>(s.cpu_ns), s.gate_pending);
        }
        return std::fclose(out) == 0;
    }

private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::int64_t> epoch_ns_{0};
    std::vector<Span> spans_;
};

}  // namespace

int main(int argc, char** argv) {
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spans") == 0 && i + 1 < argc) {
            spans_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--spans PATH]\n", argv[0]);
            return 2;
        }
    }

    // Every thread spawned below inherits this mask; the main thread
    // takes the signals synchronously with sigwait.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    obs::register_build_identity();
    obs::default_tracer().set_sample_rate(1.0);
    obs::default_tracer().set_enabled(true);

    repsys::FeedbackStore store{servebench::kStoreShards};
    const auto calibrator = servebench::make_warm_calibrator();
    serve::BatchAssessor assessor = servebench::make_assessor(calibrator);

    obs::FlightRecorder recorder{{.interval_seconds = 1.0}};
    obs::Watchdog watchdog;
    recorder.set_on_sample([&watchdog](const obs::FlightRecorder& recorder_ref,
                                       const obs::RecorderSnapshot&) {
        watchdog.evaluate(recorder_ref);
    });

    obs::IntrospectionTree tree;
    net::IntrospectionSources sources;
    sources.registry = &obs::default_registry();
    sources.tracer = &obs::default_tracer();
    sources.store = &store;
    sources.assessor = &assessor;
    sources.calibrator = calibrator;
    sources.recorder = &recorder;
    sources.watchdog = &watchdog;
    net::register_introspection(tree, sources);

    net::IngestService ingest{store, assessor};
    net::register_ingest(tree, ingest);

    SpanRecorder span_recorder;
    net::HttpHandler handler = net::make_http_handler(tree, &ingest);
    if (!spans_path.empty()) {
        handler = span_recorder.wrap(std::move(handler), ingest.gate());
    }
    net::HttpServerConfig http;
    http.ingest_gate = &ingest.gate();
    net::HttpServer server{http, std::move(handler)};
    server.start();
    watchdog.set_heartbeat_probe([&server] {
        const double lag = server.ping_lag_seconds();
        (void)server.ping();
        return lag;
    });
    recorder.start();
    std::printf("port %u\n", server.port());
    std::fflush(stdout);

    for (;;) {
        int received = 0;
        if (sigwait(&signals, &received) != 0) continue;
        if (received == SIGUSR1) {
            span_recorder.enable();
            continue;
        }
        break;
    }

    recorder.stop();
    server.stop();
    std::printf("daemon: drained; served %llu responses, ingest accepted %llu "
                "records, shed %llu\n",
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(ingest.accepted_records()),
                static_cast<unsigned long long>(ingest.gate().shed_total()));
    if (!spans_path.empty() && !span_recorder.write(spans_path)) {
        std::fprintf(stderr, "daemon: cannot write spans to %s\n",
                     spans_path.c_str());
        return 1;
    }
    return 0;
}
