// Flight-recorder interference: does the sampler thread (plus the
// watchdog evaluating and the black-box re-staging its dump every
// tick) perturb the assessment hot path?
//
//   build/bench/flight_recorder [--smoke] [--budget <percent>]
//                               [--out BENCH_8.json]
//
// The deployment shape under test is examples/reputation_server
// --listen --record-interval --blackbox: one process answering
// assessments while a recorder thread snapshots the full registry on a
// fixed cadence, the watchdog derives health signals from the ring,
// and every tick re-serializes the forensic payload into the
// black-box staging buffer.  The design claim is that all of that is
// off-path — one Registry::visit per tick on a dedicated thread, locks
// held only long enough to copy — so recording must not move the
// assess tail.
//
// Method: a population is ingested and calibration fully warmed, then
// the main thread times assess() calls over a fixed server sample in
// alternating baseline / recording segments (A/B/A/B..., pooled per
// lane, so slow host drift lands in both lanes equally).  During
// recording segments the recorder ticks at an aggressive 10ms cadence
// — 100x the production default — with the watchdog and black-box
// publish wired into the per-tick hook.  Self-checks: the recorder
// must actually have ticked during its lane, every tick must have
// evaluated the watchdog and re-staged the black-box, and the staged
// bytes must be non-empty.  On hosts with >= 8 hardware threads the
// full run enforces the overhead budget p99(recording) <=
// (1 + budget) x p99(baseline), default 2%; elsewhere (and under
// --smoke) the ratio is reported only.  Over-budget measurements
// re-measure (up to 5 attempts): a genuine regression inflates every
// attempt, a transiently loaded host does not.  Results land in
// BENCH_8.json.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/behavior_test.h"
#include "core/two_phase.h"
#include "obs/flightrecorder.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

double p99_us(std::vector<double> seconds) {
    if (seconds.empty()) return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const std::size_t index =
        static_cast<std::size_t>(0.99 * static_cast<double>(seconds.size() - 1));
    return seconds[index] * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    double budget_percent = 2.0;
    const char* out_path = "BENCH_8.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
            budget_percent = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--budget <percent>] "
                         "[--out <path>]\n",
                         argv[0]);
            return 2;
        }
    }
    const std::size_t servers = smoke ? 64 : 512;
    const std::size_t history = smoke ? 120 : 300;
    const std::size_t segments = smoke ? 4 : 12;  // per lane, interleaved
    const std::size_t calls_per_segment = smoke ? 10 : 50;
    const std::size_t sample_size = 64;
    const double record_interval = 0.01;  // 100x the production default

    std::printf("flight_recorder: %zu servers x %zu feedbacks, %zu+%zu "
                "alternating segments x %zu assess calls, %.0fms recorder "
                "cadence%s\n",
                servers, history, segments, segments, calls_per_segment,
                record_interval * 1e3, smoke ? " (smoke)" : "");

    // --- population + warmed serving layer --------------------------------
    repsys::FeedbackStore store{32};
    for (std::size_t s = 0; s < servers; ++s) {
        stats::Rng rng{0xf11e57ULL + s};
        const double p = 0.65 + 0.33 * rng.uniform();
        std::vector<repsys::Feedback> tape;
        tape.reserve(history);
        for (std::size_t i = 0; i < history; ++i) {
            tape.push_back(repsys::Feedback{
                static_cast<repsys::Timestamp>(i + 1),
                static_cast<repsys::EntityId>(s + 1),
                static_cast<repsys::EntityId>(
                    5000 + rng.uniform_int(std::uint64_t{97})),
                rng.bernoulli(p) ? repsys::Rating::kPositive
                                 : repsys::Rating::kNegative});
        }
        store.ingest_batch(tape);
    }

    serve::BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    const auto calibrator = core::make_calibrator(config.assessment.test.base);
    serve::BatchAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        calibrator};
    (void)assessor.assess_all(store);  // unmeasured calibration warm-up

    obs::default_tracer().set_enabled(true);  // trace frames in the payload

    // --- the full self-observation stack, exactly as the daemon wires it --
    obs::FlightRecorder recorder{{.interval_seconds = record_interval,
                                  .capacity = 256}};
    obs::Watchdog watchdog;
    const std::string blackbox_path =
        std::string{"/tmp/flight_recorder_bench_"} + std::to_string(::getpid());
    obs::BlackBox& blackbox = obs::BlackBox::instance();
    if (!blackbox.arm(blackbox_path)) {
        std::fprintf(stderr, "FAIL: cannot arm black-box at %s\n",
                     blackbox_path.c_str());
        return 1;
    }
    recorder.set_on_sample([&watchdog, &blackbox](
                               const obs::FlightRecorder& rec,
                               const obs::RecorderSnapshot&) {
        watchdog.evaluate(rec);
        blackbox.publish(obs::render_blackbox(rec, &watchdog,
                                              &obs::default_tracer()));
    });

    // --- alternating measurement segments ---------------------------------
    std::vector<repsys::EntityId> sample;
    for (std::size_t i = 0; i < sample_size; ++i) {
        sample.push_back(
            static_cast<repsys::EntityId>(1 + (i * 7919) % servers));
    }

    std::vector<double> baseline_lat, recording_lat;
    std::uint64_t ticks_during_lane = 0;
    std::uint64_t trickle_clock = history;
    std::uint64_t trickle_server = 0;
    bool short_result = false;
    const auto measure = [&] {
        baseline_lat.clear();
        recording_lat.clear();
        ticks_during_lane = 0;
        for (std::size_t segment = 0; segment < 2 * segments; ++segment) {
            const bool recording = segment % 2 == 1;
            const std::uint64_t ticks_before = recorder.samples_taken();
            if (recording) recorder.start();
            auto& lane = recording ? recording_lat : baseline_lat;
            for (std::size_t call = 0; call < calls_per_segment; ++call) {
                // One feedback of live ingest per call, outside the
                // timed region: a serving daemon's hpr_store_ingest_total
                // never sits still, and without the trickle the watchdog
                // correctly reports an ingest stall mid-bench.
                store.submit(repsys::Feedback{
                    static_cast<repsys::Timestamp>(++trickle_clock),
                    static_cast<repsys::EntityId>(1 + trickle_server++ %
                                                          servers),
                    static_cast<repsys::EntityId>(5001),
                    repsys::Rating::kPositive});
                const obs::Stopwatch watch;
                const auto results = assessor.assess(store, sample);
                lane.push_back(watch.seconds());
                if (results.size() != sample.size()) short_result = true;
            }
            if (recording) {
                recorder.stop();
                ticks_during_lane += recorder.samples_taken() - ticks_before;
            }
        }
    };

    // Several attempts: a genuine hot-path regression inflates every
    // attempt and still fails, a transient burst of host load clears on
    // re-measurement after a short pause.
    const double budget_ratio = 1.0 + budget_percent / 100.0;
    const unsigned hw = std::thread::hardware_concurrency();
    const bool enforce = !smoke && hw >= 8;
    constexpr int kAttempts = 5;
    double p99_base = 0.0;
    double p99_record = 0.0;
    double ratio = 0.0;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
        measure();
        p99_base = p99_us(baseline_lat);
        p99_record = p99_us(recording_lat);
        ratio = p99_base > 0.0 ? p99_record / p99_base : 0.0;
        if (!enforce || ratio <= budget_ratio) break;
        if (attempt < kAttempts) {
            std::printf("  over budget (ratio %.3f > %.3f); re-measuring "
                        "(%d/%d)\n",
                        ratio, budget_ratio, attempt, kAttempts);
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
    }

    // --- self-checks ------------------------------------------------------
    bool ok = true;
    if (short_result) {
        std::fprintf(stderr, "FAIL: short assess result\n");
        ok = false;
    }
    if (ticks_during_lane == 0) {
        std::fprintf(stderr,
                     "FAIL: recorder never ticked during its lane\n");
        ok = false;
    }
    if (watchdog.evaluations() != recorder.samples_taken()) {
        std::fprintf(stderr,
                     "FAIL: %llu watchdog evaluations for %llu recorder "
                     "ticks\n",
                     static_cast<unsigned long long>(watchdog.evaluations()),
                     static_cast<unsigned long long>(recorder.samples_taken()));
        ok = false;
    }
    if (blackbox.publishes() != recorder.samples_taken() ||
        blackbox.staged_bytes() == 0) {
        std::fprintf(stderr,
                     "FAIL: black-box staged %zu bytes over %llu publishes\n",
                     blackbox.staged_bytes(),
                     static_cast<unsigned long long>(blackbox.publishes()));
        ok = false;
    }
    // The assess_p99 signal is a latency judgement and shares the
    // overhead budget's host-load caveat (a 1-core runner timeshares the
    // sampler thread with the hot path), so it only fails where the
    // budget is enforced.  Any OTHER signal firing — collapsed caches, a
    // phantom ingest stall — means the watchdog wiring itself is wrong
    // and fails everywhere, smoke included.
    for (const obs::HealthSignal& signal : watchdog.last_verdict().signals) {
        if (!signal.firing) continue;
        if (signal.name == "assess_p99" && !enforce) {
            std::printf("  health signal %s firing (report-only): %s\n",
                        signal.name.c_str(), signal.detail.c_str());
            continue;
        }
        std::fprintf(stderr, "FAIL: health signal %s firing: %s\n",
                     signal.name.c_str(), signal.detail.c_str());
        ok = false;
    }

    const double overhead_percent = (ratio - 1.0) * 100.0;
    std::printf("\nassess p99: baseline %.1fus, recording %.1fus "
                "(ratio %.3f = %+.2f%%, budget %.2f%% %s on %u hardware "
                "threads)\n",
                p99_base, p99_record, ratio, overhead_percent, budget_percent,
                enforce ? "ENFORCED" : "report-only", hw);
    std::printf("recorder: %llu ticks (%llu during measured lane), %zu "
                "retained; watchdog: %llu evaluations, %s; black-box: %llu "
                "publishes, %zu bytes staged\n",
                static_cast<unsigned long long>(recorder.samples_taken()),
                static_cast<unsigned long long>(ticks_during_lane),
                recorder.size(),
                static_cast<unsigned long long>(watchdog.evaluations()),
                watchdog.last_verdict().healthy ? "healthy" : "DEGRADED",
                static_cast<unsigned long long>(blackbox.publishes()),
                blackbox.staged_bytes());
    if (enforce && ratio > budget_ratio) {
        std::fprintf(stderr,
                     "FAIL: recorder interference %+.2f%% exceeds the %.2f%% "
                     "budget\n",
                     overhead_percent, budget_percent);
        ok = false;
    }

    const std::uint64_t publishes = blackbox.publishes();
    const std::size_t staged = blackbox.staged_bytes();
    blackbox.disarm();

    if (std::FILE* out = std::fopen(out_path, "w")) {
        std::fprintf(
            out,
            "{\n"
            "  \"bench\": \"flight_recorder\",\n"
            "  \"smoke\": %s,\n"
            "  \"hardware_threads\": %u,\n"
            "  \"servers\": %zu,\n"
            "  \"history\": %zu,\n"
            "  \"segments_per_lane\": %zu,\n"
            "  \"assess_calls_per_segment\": %zu,\n"
            "  \"sample_size\": %zu,\n"
            "  \"record_interval_seconds\": %.3f,\n"
            "  \"latency\": {\n"
            "    \"assess_p99_baseline_us\": %.1f,\n"
            "    \"assess_p99_recording_us\": %.1f,\n"
            "    \"overhead_percent\": %.2f,\n"
            "    \"budget_percent\": %.2f,\n"
            "    \"budget_enforced\": %s\n"
            "  },\n"
            "  \"recorder\": {\n"
            "    \"ticks\": %llu,\n"
            "    \"ticks_during_lane\": %llu,\n"
            "    \"watchdog_evaluations\": %llu,\n"
            "    \"healthy\": %s,\n"
            "    \"blackbox_publishes\": %llu,\n"
            "    \"blackbox_staged_bytes\": %zu\n"
            "  },\n"
            "  \"all_budgets_met\": %s\n"
            "}\n",
            smoke ? "true" : "false", hw, servers, history, segments,
            calls_per_segment, sample_size, record_interval, p99_base,
            p99_record, overhead_percent, budget_percent,
            enforce ? "true" : "false",
            static_cast<unsigned long long>(recorder.samples_taken()),
            static_cast<unsigned long long>(ticks_during_lane),
            static_cast<unsigned long long>(watchdog.evaluations()),
            watchdog.last_verdict().healthy ? "true" : "false",
            static_cast<unsigned long long>(publishes), staged,
            ok && enforce ? "true" : "false");
        std::fclose(out);
        std::printf("wrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
        ok = false;
    }
    std::remove(blackbox_path.c_str());

    bench::print_metrics();
    return ok ? 0 : 1;
}
