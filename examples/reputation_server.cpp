// A miniature reputation service, streaming-first: the feedback store
// ingests a mixed population's transaction stream while the serving
// layer's incremental screener bank (serve::BatchAssessor) monitors
// every server live — flagging mid-stream, recovering after sustained
// good service, each stream bounded to a retention horizon of complete
// windows.  On demand the service answers assessments from the standing
// stream states (the primary path) and cross-checks them against the
// batch two-phase oracle.  A retention pass at the end shows the
// eviction tie-in: dropping cold history from the store also releases
// the affected screeners.  Every layer records into the process-wide obs
// registry; the run ends with a metrics dump — Prometheus text by
// default, or a JSON snapshot with `--json`.  With `--trace-dump` the
// decision tracer is switched on as well and the run additionally emits
// the retained DecisionRecords as JSONL — the audit trail a forensics
// pipeline (examples/trace_query) consumes.
//
// With `--listen=PORT` the example becomes a **daemon**: the epoll
// introspection front-end (net/http_server.h) serves the browsable
// state tree — /metrics, /metrics.json, /traces, /servers, /store,
// /calibration (docs/observability.md) — while the foreground keeps
// ingesting and assessing a live transaction stream.  SIGINT/SIGTERM
// (or `--duration=S`) drains in-flight scrapes and exits 0 with the
// usual final metrics dump.
//
// Daemon mode also runs the full self-observation stack: a flight
// recorder samples the registry every `--record-interval` seconds into
// the /timeseries ring, the watchdog derives the /health verdict (and
// hpr_health_* gauges) from it — including an event-loop heartbeat via
// the HTTP server's eventfd self-ping — and `--blackbox=PATH` arms the
// crash black-box so SIGSEGV/SIGABRT/SIGBUS dump the final snapshots,
// health state and traces before the process dies.
//
//   build/examples/reputation_server [--json] [--trace-dump[=N]]
//                                    [--trace-sample=R] [--threads=N]
//                                    [--shards=N] [--horizon=W]
//                                    [--listen=PORT] [--duration=S]
//                                    [--record-interval=S]
//                                    [--blackbox=PATH]
//
// Exercises: repsys::FeedbackStore (sharded), serve::BatchAssessor's
// incremental screener bank over core::OnlineScreener,
// core::TwoPhaseAssessor as the batch oracle, core::ChangePointDetector,
// obs::Registry + exporters, obs::Tracer, obs::FlightRecorder +
// obs::Watchdog + obs::BlackBox, obs::IntrospectionTree +
// net::HttpServer (daemon mode).

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "flags.h"
#include "core/behavior_test.h"
#include "core/changepoint.h"
#include "core/online.h"
#include "core/two_phase.h"
#include "net/endpoints.h"
#include "net/http_server.h"
#include "net/ingest.h"
#include "obs/buildinfo.h"
#include "obs/export.h"
#include "obs/flightrecorder.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

struct Population {
    repsys::EntityId id;
    std::string label;
    double p_good;           // probability of good service...
    std::size_t flip_after;  // ...until this many transactions (0 = never flips)
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--trace-dump[=N]] [--trace-sample=R]\n"
                 "          [--threads=N] [--shards=N] [--horizon=W]\n"
                 "          [--listen=PORT] [--duration=S]\n"
                 "  --json            emit the metrics dump as JSON\n"
                 "  --trace-dump[=N]  enable decision tracing and dump the last N\n"
                 "                    retained DecisionRecords as JSONL (default: all)\n"
                 "  --trace-sample=R  trace sampling rate in [0,1] (default 1)\n"
                 "  --threads=N       batch-assessment threads (default: hardware)\n"
                 "  --shards=N        feedback-store lock stripes (default: %zu)\n"
                 "  --horizon=W       screener retention horizon in complete windows\n"
                 "                    (default: 64; 0 = unbounded)\n"
                 "  --listen=PORT     daemon mode: serve the introspection tree on\n"
                 "                    127.0.0.1:PORT while ingesting+assessing live\n"
                 "                    load, until SIGINT/SIGTERM (tracing enabled)\n"
                 "  --duration=S      daemon mode: stop after S seconds (default:\n"
                 "                    run until a signal arrives)\n"
                 "  --record-interval=S  daemon mode: flight-recorder sampling\n"
                 "                    cadence in seconds (default: 1)\n"
                 "  --ingest-budget=N daemon mode: pending-records budget of the\n"
                 "                    POST /ingest admission gate (default: 65536)\n"
                 "  --blackbox=PATH   daemon mode: arm the crash black-box; on\n"
                 "                    SIGSEGV/SIGABRT/SIGBUS the final snapshots,\n"
                 "                    health state and traces are dumped to PATH\n",
                 argv0, hpr::repsys::FeedbackStore::kDefaultShards);
    return 2;
}

/// Strict parse of a non-negative seconds value (decimals allowed).
bool parse_flag_seconds(const char* text, double& out) {
    double value = 0.0;
    if (!parse_flag_double(text, value) || value < 0.0) return false;
    out = value;
    return true;
}

/// The end-of-run metrics dump both modes share — what a deployment
/// would log on shutdown even though the live /metrics page existed.
void dump_metrics(bool json) {
    obs::publish_uptime();
    if (json) {
        std::printf("\n--- metrics (json) ---\n%s\n",
                    obs::to_json(obs::default_registry()).c_str());
    } else {
        std::printf("\n--- metrics (prometheus) ---\n%s",
                    obs::to_prometheus(obs::default_registry()).c_str());
    }
}

// Signal plumbing of daemon mode: the handler flips a flag for the load
// loop and pokes the HTTP server's eventfd — both async-signal-safe.
std::atomic<bool> g_stop{false};
std::atomic<net::HttpServer*> g_signal_server{nullptr};

void handle_stop_signal(int) {
    g_stop.store(true, std::memory_order_release);
    if (net::HttpServer* server =
            g_signal_server.load(std::memory_order_acquire)) {
        server->request_stop();
    }
}

/// Daemon mode: the introspection front-end serves the browsable tree
/// while this thread keeps ingesting the population's stream and
/// periodically re-assessing it — scrapes and load run concurrently
/// against the same store/assessor/registry, exactly the deployment
/// shape bench/introspection_daemon measures.
int run_daemon(repsys::FeedbackStore& store, serve::BatchAssessor& assessor,
               std::shared_ptr<stats::Calibrator> calibrator,
               const std::vector<Population>& servers, std::uint16_t port,
               double duration, bool json_metrics, double record_interval,
               const std::string& blackbox_path, std::size_t ingest_budget) {
    // The self-observation stack: recorder feeds watchdog feeds (when
    // armed) the crash black-box, all driven by the recorder's tick.
    obs::FlightRecorder recorder{{.interval_seconds = record_interval}};
    obs::Watchdog watchdog;
    obs::BlackBox& blackbox = obs::BlackBox::instance();
    if (!blackbox_path.empty() && !blackbox.arm(blackbox_path)) {
        std::fprintf(stderr, "daemon: cannot arm black-box at %s: %s\n",
                     blackbox_path.c_str(), std::strerror(errno));
        return 1;
    }
    recorder.set_on_sample([&watchdog, &blackbox](
                               const obs::FlightRecorder& recorder_ref,
                               const obs::RecorderSnapshot&) {
        watchdog.evaluate(recorder_ref);
        if (blackbox.armed()) {
            blackbox.publish(obs::render_blackbox(recorder_ref, &watchdog,
                                                  &obs::default_tracer()));
        }
    });

    obs::IntrospectionTree tree;
    net::IntrospectionSources sources;
    sources.registry = &obs::default_registry();
    sources.tracer = &obs::default_tracer();
    sources.store = &store;
    sources.assessor = &assessor;
    sources.calibrator = std::move(calibrator);
    sources.recorder = &recorder;
    sources.watchdog = &watchdog;
    net::register_introspection(tree, sources);

    // The write path: POST /ingest lands wire batches in the same store
    // and screener bank the in-process load loop feeds, gated by a
    // bounded pending-records budget (GET /assess and /ingest/stats ride
    // on the tree).
    net::IngestServiceConfig ingest_config;
    if (ingest_budget != 0) ingest_config.gate.pending_budget = ingest_budget;
    net::IngestService ingest{store, assessor, ingest_config};
    net::register_ingest(tree, ingest);

    net::HttpServerConfig http;
    http.port = port;
    http.ingest_gate = &ingest.gate();
    net::HttpServer server{http, net::make_http_handler(tree, &ingest)};
    server.start();
    // Event-loop responsiveness: each watchdog evaluation reads the lag
    // of the last acknowledged self-ping and queues the next one.
    watchdog.set_heartbeat_probe([&server] {
        const double lag = server.ping_lag_seconds();
        (void)server.ping();
        return lag;
    });
    recorder.start();
    g_signal_server.store(&server, std::memory_order_release);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::printf("daemon: listening on http://127.0.0.1:%u%s\n", server.port(),
                duration > 0.0 ? "" : " (SIGINT/SIGTERM to stop)");
    std::fflush(stdout);

    stats::Rng rng{4242};
    std::vector<repsys::EntityId> ids;
    ids.reserve(servers.size());
    for (const auto& s : servers) ids.push_back(s.id);
    const auto start = std::chrono::steady_clock::now();
    std::size_t tx = 0;
    while (!g_stop.load(std::memory_order_acquire)) {
        if (duration > 0.0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                    .count() >= duration) {
            break;
        }
        for (const auto& s : servers) {
            bool good;
            if (s.flip_after != 0 && tx >= s.flip_after) {
                good = s.id == 4 ? false : rng.bernoulli(0.85);
            } else {
                good = rng.bernoulli(s.p_good);
            }
            const repsys::Feedback feedback{
                static_cast<repsys::Timestamp>(tx + 1), s.id,
                static_cast<repsys::EntityId>(
                    100 + rng.uniform_int(std::uint64_t{60})),
                good ? repsys::Rating::kPositive : repsys::Rating::kNegative};
            store.submit(feedback);
            assessor.observe(feedback);
        }
        ++tx;
        // First assessment at round 8, while every stream is still too
        // short for a screener verdict: the batch falls through to the
        // full two-phase scan, so scrapes see that path's metrics from
        // the start instead of only the streaming shortcuts.
        if (tx == 8 || tx % 64 == 0) {
            const auto assessments = assessor.assess(store, ids);
            (void)assessments;
        }
        if (tx % 1024 == 0 && tx > 4096) {
            // Retention keeps the daemon's resident state bounded no
            // matter how long it runs; forgotten servers release their
            // screeners too.
            std::vector<repsys::EntityId> forgotten;
            store.evict_before(static_cast<repsys::Timestamp>(tx - 4096),
                               &forgotten);
            assessor.drop_streams(forgotten);
        }
        // ~1k transaction rounds/s: enough live churn for every scrape
        // to see fresh state without saturating a CI host.
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }

    recorder.stop();
    server.stop();
    g_signal_server.store(nullptr, std::memory_order_release);
    const obs::HealthVerdict verdict = watchdog.last_verdict();
    std::printf("daemon: drained after %zu transaction rounds; served %llu "
                "responses (%llu rejected, %llu timed out, %llu malformed, "
                "%llu bytes)\n",
                tx,
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(server.rejected_connections()),
                static_cast<unsigned long long>(server.timed_out_connections()),
                static_cast<unsigned long long>(server.malformed_requests()),
                static_cast<unsigned long long>(server.bytes_sent()));
    std::printf("daemon: ingest accepted %llu requests (%llu records), "
                "rejected %llu, shed %llu (gate pending %zu of %zu)\n",
                static_cast<unsigned long long>(ingest.accepted_requests()),
                static_cast<unsigned long long>(ingest.accepted_records()),
                static_cast<unsigned long long>(ingest.rejected_requests()),
                static_cast<unsigned long long>(ingest.gate().shed_total()),
                ingest.gate().pending(),
                ingest.gate().config().pending_budget);
    std::printf("daemon: recorder took %llu samples (%zu retained), health "
                "%s after %llu evaluations, black-box %s (%llu publishes)\n",
                static_cast<unsigned long long>(recorder.samples_taken()),
                recorder.size(), verdict.healthy ? "ok" : "degraded",
                static_cast<unsigned long long>(watchdog.evaluations()),
                blackbox.armed() ? "armed" : "off",
                static_cast<unsigned long long>(blackbox.publishes()));
    // No crash happened: release the handlers and leave an empty file.
    blackbox.disarm();
    dump_metrics(json_metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool json_metrics = false;
    bool trace_dump = false;
    std::size_t trace_dump_last = SIZE_MAX;  // SIZE_MAX = every retained record
    double trace_sample = 1.0;
    std::size_t threads = 0;  // 0 = hardware concurrency
    std::size_t shards = repsys::FeedbackStore::kDefaultShards;
    std::size_t horizon = 64;  // screener retention, in complete windows
    std::size_t listen_port = 0;
    bool listen = false;
    double duration = 0.0;  // daemon run time; 0 = until a signal
    double record_interval = 1.0;  // flight-recorder cadence, seconds
    std::size_t ingest_budget = 0;  // 0 = the gate's default budget
    std::string blackbox_path;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            json_metrics = true;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parse_flag_size(arg + 10, 0, threads)) return usage(argv[0]);
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            if (!parse_flag_size(arg + 9, 1, shards)) return usage(argv[0]);
        } else if (std::strncmp(arg, "--horizon=", 10) == 0) {
            if (!parse_flag_size(arg + 10, 0, horizon)) return usage(argv[0]);
        } else if (std::strcmp(arg, "--trace-dump") == 0) {
            trace_dump = true;
        } else if (std::strncmp(arg, "--trace-dump=", 13) == 0) {
            trace_dump = true;
            if (!parse_flag_size(arg + 13, 0, trace_dump_last)) {
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
            if (!parse_flag_unit(arg + 15, trace_sample)) return usage(argv[0]);
        } else if (std::strncmp(arg, "--listen=", 9) == 0) {
            if (!parse_flag_size(arg + 9, 1, listen_port) ||
                listen_port > 65535) {
                return usage(argv[0]);
            }
            listen = true;
        } else if (std::strncmp(arg, "--duration=", 11) == 0) {
            if (!parse_flag_seconds(arg + 11, duration)) return usage(argv[0]);
        } else if (std::strncmp(arg, "--record-interval=", 18) == 0) {
            if (!parse_flag_seconds(arg + 18, record_interval) ||
                record_interval <= 0.0) {
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--ingest-budget=", 16) == 0) {
            if (!parse_flag_size(arg + 16, 1, ingest_budget)) {
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--blackbox=", 11) == 0) {
            blackbox_path = arg + 11;
            if (blackbox_path.empty()) return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    // Build identity and uptime belong in every dump and every scrape.
    obs::register_build_identity();
    if (trace_dump || listen) {
        // Daemon mode traces unconditionally: /traces is part of the
        // introspection surface it exists to serve.
        obs::default_tracer().set_sample_rate(trace_sample);
        obs::default_tracer().set_enabled(true);
    }
    const std::vector<Population> servers{
        {1, "honest premium (p=0.97)", 0.97, 0},
        {2, "honest budget (p=0.90)", 0.90, 0},
        {3, "quality-drop (0.96 -> 0.85 at tx 500)", 0.96, 500},
        {4, "hibernating attacker (flips at tx 700)", 0.96, 700},
    };

    repsys::FeedbackStore store{shards};
    const auto calibrator = core::make_calibrator({});
    {
        // Warm-start the shared calibrator across its worker pool before
        // traffic arrives: every window-count bucket a 1000-transaction
        // history can hit, p̂ in the range this population produces.  In a
        // real deployment this cache ships with the binary
        // (Calibrator::save_cache / load_cache) instead.
        const obs::Stopwatch warm_watch;
        const std::size_t warmed =
            core::warm_calibration(*calibrator, 10, 1000 / 10, 0.55, 1.0);
        const double warm_s = warm_watch.seconds();
        std::printf("warm start: %zu calibration keys in %.1fs on %zu threads "
                    "(%.0f keys/s)\n\n",
                    warmed, warm_s, calibrator->threads(),
                    warm_s > 0.0 ? static_cast<double>(warmed) / warm_s : 0.0);
    }

    // The serving layer, streaming-first: every ingested feedback also
    // updates its server's horizon-bounded screener in the bank, so
    // assessments can later answer from standing stream state.
    serve::BatchAssessorConfig serve_config;
    serve_config.assessment.mode = core::ScreeningMode::kMulti;
    serve_config.assessment.test.bonferroni = true;
    serve_config.threads = threads;
    serve_config.screener_horizon = horizon;
    serve::BatchAssessor assessor{
        serve_config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        calibrator};

    if (listen) {
        return run_daemon(store, assessor, calibrator, servers,
                          static_cast<std::uint16_t>(listen_port), duration,
                          json_metrics, record_interval, blackbox_path,
                          ingest_budget);
    }

    // Live ingestion: every feedback goes to the sharded store and to the
    // serving layer's screener bank.
    stats::Rng rng{4242};
    std::map<repsys::EntityId, std::size_t> flagged_at;
    for (std::size_t tx = 0; tx < 1000; ++tx) {
        for (const auto& s : servers) {
            bool good;
            if (s.flip_after != 0 && tx >= s.flip_after) {
                good = s.id == 4 ? false  // attacker: always cheat after flip
                                 : rng.bernoulli(0.85);  // quality drop
            } else {
                good = rng.bernoulli(s.p_good);
            }
            const repsys::Feedback feedback{
                static_cast<repsys::Timestamp>(tx + 1), s.id,
                static_cast<repsys::EntityId>(100 + rng.uniform_int(std::uint64_t{60})),
                good ? repsys::Rating::kPositive : repsys::Rating::kNegative};
            store.submit(feedback);
            const auto before = assessor.stream_state(s.id);
            assessor.observe(feedback);
            if (before != core::StreamState::kSuspicious &&
                assessor.stream_state(s.id) == core::StreamState::kSuspicious &&
                flagged_at.find(s.id) == flagged_at.end()) {
                flagged_at[s.id] = tx + 1;
            }
        }
    }

    std::printf("live monitoring after 1000 transactions per server "
                "(horizon: %zu windows, %zu streams, %zu bytes resident):\n",
                horizon, assessor.tracked_streams(),
                assessor.stream_memory_bytes());
    for (const auto& s : servers) {
        std::printf("  %-42s state=%-12s", s.label.c_str(),
                    core::to_string(assessor.stream_state(s.id)));
        if (const auto it = flagged_at.find(s.id); it != flagged_at.end()) {
            std::printf(" first flagged at tx %zu", it->second);
        }
        std::printf("\n");
    }

    // On-demand assessment (what a client asks before transacting):
    // answered from the standing stream states, then cross-checked
    // against the batch two-phase oracle over the full histories.
    const auto streaming = assessor.assess_all(store);
    const auto oracle = assessor.assess_batch(store, store.servers());
    std::printf("\nassessment, streaming-first vs batch oracle (beta trust, "
                "%zu shards, %zu threads):\n",
                store.shard_count(), assessor.threads());
    std::size_t agreements = 0;
    for (std::size_t i = 0; i < streaming.size(); ++i) {
        const auto& fast = streaming[i].assessment;
        const auto& slow = oracle[i].assessment;
        const bool fast_ok = fast.verdict != core::Verdict::kSuspicious;
        const bool slow_ok = slow.verdict != core::Verdict::kSuspicious;
        agreements += fast_ok == slow_ok;
        std::printf("  server %u: streaming=%-12s oracle=%-12s trust=%s\n",
                    streaming[i].server, core::to_string(fast.verdict),
                    core::to_string(slow.verdict),
                    fast.trust ? std::to_string(*fast.trust).c_str()
                               : "(withheld)");
    }
    std::printf("  accept/reject agreement: %zu/%zu\n", agreements,
                streaming.size());

    // Regime report for the quality-drop server (paper §4: false alerts
    // "help us identify such factors" — the change-point detector makes
    // the factor explicit).
    const core::ChangePointDetector detector;
    const auto changes = detector.detect(store.history_snapshot(3).view());
    std::printf("\nchange points in server 3's stream:\n");
    for (const auto& cp : changes) {
        std::printf("  at window %zu (tx ~%zu): p %.2f -> %.2f (gain %.1f)\n",
                    cp.window_index, cp.window_index * 10, cp.p_before, cp.p_after,
                    cp.gain);
    }

    // Retention pass: evicting cold history from the store also releases
    // the forgotten servers' screeners — the store's eviction machinery
    // bounds the screener bank, not just the feedback logs.
    {
        std::vector<repsys::EntityId> forgotten;
        const std::size_t evicted = store.evict_before(1001, &forgotten);
        const std::size_t released = assessor.drop_streams(forgotten);
        std::printf("\nretention: evicted %zu feedbacks, forgot %zu servers, "
                    "released %zu screeners (%zu streams remain)\n",
                    evicted, forgotten.size(), released,
                    assessor.tracked_streams());
    }

    // The /metrics endpoint of a real deployment (daemon mode serves it
    // live): everything the layers above recorded — calibration cache
    // behavior, worker-pool queueing, screening verdicts and phase
    // latencies, store ingest levels, screener-bank occupancy and
    // eviction.
    dump_metrics(json_metrics);

    // The forensics feed: every retained DecisionRecord, oldest first,
    // one JSON object per line.  Pipe into examples/trace_query to answer
    // "why was server S flagged?".
    if (trace_dump) {
        const auto records = obs::default_tracer().ring().drain();
        std::size_t begin = 0;
        if (trace_dump_last < records.size()) {
            begin = records.size() - trace_dump_last;
        }
        std::printf("\n--- decision traces (jsonl) ---\n");
        for (std::size_t i = begin; i < records.size(); ++i) {
            std::printf("%s\n", obs::to_jsonl(records[i]).c_str());
        }
    }
    return 0;
}
