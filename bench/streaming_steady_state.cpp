// Streaming steady state: proves the horizon-bounded OnlineScreener is
// flat in time and memory no matter how old its stream gets, and that
// bounding costs no verdict fidelity over the retained horizon.
//
//   build/bench/streaming_steady_state [--smoke] [--out BENCH_6.json]
//
// Three phases, each with its budget enforced (exit 1 on violation):
//
//  1. **Flat latency.**  One horizon-H screener ingests a 100x-longer
//     stream than its horizon; median per-feedback latency is measured
//     right after the ring first fills ("early") and again at 100x the
//     stream age ("late").  Budget: late/early <= 1.25.  The unbounded
//     screener (max_windows = 0) runs the same stream to 10x as the
//     contrast lane — its ladder deepens with the stream, so its ratio
//     is reported (and should be visibly worse), not budgeted.
//  2. **Bounded memory.**  A serve::BatchAssessor screener bank tracks
//     >= 100k server ids; a subset then receives 100x more traffic.
//     Budget: the bank's resident bytes are *identical* before and
//     after (rings are reserved at construction and never regrow), and
//     eviction releases exactly the dropped streams.
//  3. **Zero divergence.**  Fuzzed streams (honest, marginal, and
//     mid-stream cheats) check that (a) bounded == unbounded verdicts,
//     states, and p-hat while the stream still fits the horizon, and
//     (b) once wrapped, every bounded evaluation equals batch
//     MultiTest over the newest H*m outcomes.  Budget: zero mismatches.
//
// Calibration is warmed (and the latency streams pre-run unmeasured)
// first, so the measured lanes never pay Monte-Carlo cost.  Results are
// written as machine-readable JSON (default BENCH_6.json) and the bench
// ends with the obs registry dump so the hpr_serving_screener_* gauges
// land in CI logs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/behavior_test.h"
#include "core/multi_test.h"
#include "core/online.h"
#include "obs/timer.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "repsys/types.h"
#include "serve/batch_assessor.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/// Deterministic outcome tape: Bernoulli(p) until `flip_at` (0 = never),
/// Bernoulli(p_after) from there on.
std::vector<std::uint8_t> make_tape(std::uint64_t seed, std::size_t length,
                                    double p, std::size_t flip_at,
                                    double p_after) {
    stats::Rng rng{seed};
    std::vector<std::uint8_t> tape;
    tape.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        const double p_now = (flip_at != 0 && i >= flip_at) ? p_after : p;
        tape.push_back(rng.bernoulli(p_now) ? 1 : 0);
    }
    return tape;
}

/// Feed tape[begin, end) into the screener, timing each window-sized
/// chunk; returns the median per-feedback latency in nanoseconds.
double measured_feed(core::OnlineScreener& screener,
                     const std::vector<std::uint8_t>& tape, std::size_t begin,
                     std::size_t end, std::uint32_t m) {
    std::vector<double> chunk_ns;
    chunk_ns.reserve((end - begin) / m);
    for (std::size_t at = begin; at + m <= end; at += m) {
        const obs::Stopwatch watch;
        for (std::size_t i = 0; i < m; ++i) screener.observe(tape[at + i] != 0);
        chunk_ns.push_back(watch.seconds() * 1e9 / static_cast<double>(m));
    }
    return median(std::move(chunk_ns));
}

/// Feed tape[begin, end) without timing.
void feed(core::OnlineScreener& screener, const std::vector<std::uint8_t>& tape,
          std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) screener.observe(tape[i] != 0);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    const char* out_path = "BENCH_6.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
            return 2;
        }
    }

    core::OnlineScreenerConfig screener_config;
    screener_config.test.bonferroni = true;
    const std::uint32_t m = screener_config.test.base.window_size;
    const std::size_t horizon = smoke ? 16 : 64;  // windows
    const std::size_t age_multiplier = 100;       // late stream age vs early
    const std::size_t horizon_tx = horizon * m;
    screener_config.max_windows = horizon;

    std::printf("streaming_steady_state: horizon=%zu windows, m=%u, "
                "late stream age=%zux%s\n",
                horizon, m, age_multiplier, smoke ? " (smoke)" : "");

    // One calibrator for every lane; warm the whole (windows x p) grid
    // the ladders below can touch, plus the contrast lane's deep ladder.
    const auto calibrator = core::make_calibrator(screener_config.test.base);
    const std::size_t unbounded_windows = horizon * 10;
    {
        const obs::Stopwatch watch;
        const std::size_t warmed =
            core::warm_calibration(*calibrator, m, unbounded_windows, 0.30, 1.0);
        std::printf("warm start: %zu calibration keys in %.1fs\n", warmed,
                    watch.seconds());
    }

    bool all_budgets_met = true;

    // ---- Phase 1: flat latency ------------------------------------------
    // Early = the `horizon` windows right after the ring first fills;
    // late = the same measurement at 100x the stream age.
    const std::size_t early_begin = horizon_tx;
    const std::size_t early_end = 2 * horizon_tx;
    const std::size_t late_end = age_multiplier * horizon_tx;
    const std::size_t late_begin = late_end - horizon_tx;
    const auto latency_tape = make_tape(0x57ead1ULL, late_end, 0.92, 0, 0.0);

    // Unmeasured pre-run: identical stream, so the measured lanes hit
    // every calibration and reference-model key warm.
    {
        core::OnlineScreener warmup{screener_config, calibrator};
        feed(warmup, latency_tape, 0, late_end);
    }
    core::OnlineScreener bounded{screener_config, calibrator};
    feed(bounded, latency_tape, 0, early_begin);
    const double bounded_early_ns =
        measured_feed(bounded, latency_tape, early_begin, early_end, m);
    feed(bounded, latency_tape, early_end, late_begin);
    const double bounded_late_ns =
        measured_feed(bounded, latency_tape, late_begin, late_end, m);
    const double bounded_ratio = bounded_late_ns / bounded_early_ns;

    // Contrast lane: the unbounded screener's ladder deepens with the
    // stream, so 10x the stream age is already enough to see the drift.
    core::OnlineScreenerConfig unbounded_config = screener_config;
    unbounded_config.max_windows = 0;
    const std::size_t contrast_end = unbounded_windows * m;
    {
        core::OnlineScreener warmup{unbounded_config, calibrator};
        feed(warmup, latency_tape, 0, contrast_end);
    }
    core::OnlineScreener unbounded{unbounded_config, calibrator};
    feed(unbounded, latency_tape, 0, early_begin);
    const double unbounded_early_ns =
        measured_feed(unbounded, latency_tape, early_begin, early_end, m);
    feed(unbounded, latency_tape, early_end, contrast_end - horizon_tx);
    const double unbounded_late_ns = measured_feed(
        unbounded, latency_tape, contrast_end - horizon_tx, contrast_end, m);
    const double unbounded_ratio = unbounded_late_ns / unbounded_early_ns;

    std::printf("\nper-feedback latency (median ns):\n"
                "  bounded   early=%.0f late(%zux)=%.0f ratio=%.3f (budget <= 1.25)\n"
                "  unbounded early=%.0f late(10x)=%.0f ratio=%.3f (contrast)\n",
                bounded_early_ns, age_multiplier, bounded_late_ns, bounded_ratio,
                unbounded_early_ns, unbounded_late_ns, unbounded_ratio);
    std::printf("  memory: bounded=%zu bytes (constant), unbounded=%zu bytes "
                "at 10x age\n",
                bounded.memory_bytes(), unbounded.memory_bytes());
    if (!(bounded_ratio <= 1.25)) {
        std::fprintf(stderr,
                     "FAIL: bounded late/early latency ratio %.3f exceeds 1.25\n",
                     bounded_ratio);
        all_budgets_met = false;
    }

    // ---- Phase 2: bounded memory across a large screener bank -----------
    const std::size_t bank_servers = smoke ? 5000 : 100000;
    const std::size_t hot_servers = smoke ? 64 : 128;
    serve::BatchAssessorConfig serve_config;
    serve_config.assessment.test = screener_config.test;
    serve_config.screener_horizon = horizon;
    serve_config.threads = 1;
    serve::BatchAssessor bank{
        serve_config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")},
        calibrator};
    stats::Rng bank_rng{0xbadc0ffeULL};
    const auto observe_n = [&](repsys::EntityId server, std::size_t count,
                               repsys::Timestamp start) {
        for (std::size_t i = 0; i < count; ++i) {
            bank.observe(repsys::Feedback{start + static_cast<repsys::Timestamp>(i),
                                          server, 1,
                                          bank_rng.bernoulli(0.9)
                                              ? repsys::Rating::kPositive
                                              : repsys::Rating::kNegative});
        }
    };
    // Short streams: two complete windows per server (below min_windows,
    // so this sweep measures pure ingest + ring footprint).
    for (std::size_t s = 0; s < bank_servers; ++s) {
        observe_n(static_cast<repsys::EntityId>(s + 1), 2 * m, 1);
    }
    const std::size_t bytes_short = bank.stream_memory_bytes();
    const std::size_t tracked_short = bank.tracked_streams();
    // A hot subset then lives 100x longer (well past ring wrap-around).
    for (std::size_t s = 0; s < hot_servers; ++s) {
        observe_n(static_cast<repsys::EntityId>(s + 1), age_multiplier * 2 * m,
                  2 * m + 1);
    }
    const std::size_t bytes_long = bank.stream_memory_bytes();
    const std::size_t per_stream =
        tracked_short == 0 ? 0 : bytes_short / tracked_short;
    std::printf("\nscreener bank: %zu streams, %zu bytes (%zu/stream); after "
                "%zu streams aged %zux: %zu bytes\n",
                tracked_short, bytes_short, per_stream, hot_servers,
                age_multiplier, bytes_long);
    if (tracked_short != bank_servers || bytes_long != bytes_short) {
        std::fprintf(stderr,
                     "FAIL: bank memory not bounded (%zu -> %zu bytes)\n",
                     bytes_short, bytes_long);
        all_budgets_met = false;
    }
    // Eviction churn: retention on the store side must release exactly
    // the forgotten servers' screeners.
    std::size_t evicted_streams = 0;
    {
        repsys::FeedbackStore store;
        const std::size_t evict_servers = smoke ? 500 : 1000;
        for (std::size_t s = 0; s < evict_servers; ++s) {
            store.submit(repsys::Feedback{1, static_cast<repsys::EntityId>(s + 1),
                                          1, repsys::Rating::kPositive});
        }
        std::vector<repsys::EntityId> forgotten;
        (void)store.evict_before(2, &forgotten);
        evicted_streams = bank.drop_streams(forgotten);
        const std::size_t expected = bank_servers - evict_servers;
        std::printf("eviction: forgot %zu servers, released %zu screeners, "
                    "%zu streams remain\n",
                    forgotten.size(), evicted_streams, bank.tracked_streams());
        if (evicted_streams != forgotten.size() ||
            bank.tracked_streams() != expected) {
            std::fprintf(stderr, "FAIL: eviction did not release the bank\n");
            all_budgets_met = false;
        }
    }
    (void)bank.stream_memory_bytes();  // republish the bytes gauge post-eviction

    // ---- Phase 3: zero divergence ---------------------------------------
    // (a) bounded == unbounded while the stream fits the horizon;
    // (b) once wrapped, bounded evaluations == batch MultiTest over the
    //     newest horizon*m outcomes.
    const std::size_t fuzz_streams = smoke ? 12 : 100;
    const std::size_t fuzz_tx = 3 * horizon_tx;
    const core::MultiTest oracle{screener_config.test, calibrator};
    std::size_t horizon_mismatches = 0;
    std::size_t oracle_divergences = 0;
    std::size_t oracle_checks = 0;
    stats::Rng fuzz_rng{0xd1fefe11ULL};
    for (std::size_t run = 0; run < fuzz_streams; ++run) {
        const double p = 0.55 + 0.43 * fuzz_rng.uniform();
        const bool cheats = run % 3 == 2;
        const std::size_t flip_at = cheats ? fuzz_tx / 2 : 0;
        const auto tape =
            make_tape(0xfadedULL + run, fuzz_tx, p, flip_at, p * 0.55);
        core::OnlineScreener ring{screener_config, calibrator};
        core::OnlineScreener full{unbounded_config, calibrator};
        for (std::size_t i = 0; i < fuzz_tx; ++i) {
            const bool good = tape[i] != 0;
            ring.observe(good);
            if (i < horizon_tx) {
                full.observe(good);
                if (ring.state() != full.state() ||
                    ring.p_hat() != full.p_hat() ||
                    ring.last_evaluation_passed() !=
                        full.last_evaluation_passed()) {
                    ++horizon_mismatches;
                }
            }
            const bool window_edge = (i + 1) % m == 0;
            if (window_edge && i + 1 >= horizon_tx) {
                ++oracle_checks;
                const auto batch = oracle.test(std::span<const std::uint8_t>{
                    tape.data() + (i + 1 - horizon_tx), horizon_tx});
                if (batch.passed != ring.last_evaluation_passed()) {
                    ++oracle_divergences;
                }
            }
        }
    }
    std::printf("\ndivergence: %zu streams x %zu tx, %zu within-horizon "
                "mismatches, %zu/%zu oracle divergences\n",
                fuzz_streams, fuzz_tx, horizon_mismatches, oracle_divergences,
                oracle_checks);
    if (horizon_mismatches != 0 || oracle_divergences != 0) {
        std::fprintf(stderr, "FAIL: bounded screener diverged\n");
        all_budgets_met = false;
    }

    if (std::FILE* out = std::fopen(out_path, "w")) {
        std::fprintf(
            out,
            "{\n"
            "  \"bench\": \"streaming_steady_state\",\n"
            "  \"smoke\": %s,\n"
            "  \"hardware_threads\": %zu,\n"
            "  \"window_size\": %u,\n"
            "  \"horizon_windows\": %zu,\n"
            "  \"age_multiplier\": %zu,\n"
            "  \"latency\": {\n"
            "    \"bounded_early_ns\": %.1f,\n"
            "    \"bounded_late_ns\": %.1f,\n"
            "    \"bounded_late_early_ratio\": %.3f,\n"
            "    \"ratio_budget\": 1.25,\n"
            "    \"unbounded_early_ns\": %.1f,\n"
            "    \"unbounded_late_ns\": %.1f,\n"
            "    \"unbounded_late_early_ratio\": %.3f,\n"
            "    \"bounded_screener_bytes\": %zu,\n"
            "    \"unbounded_screener_bytes_10x\": %zu\n"
            "  },\n"
            "  \"memory\": {\n"
            "    \"bank_servers\": %zu,\n"
            "    \"bytes_short_streams\": %zu,\n"
            "    \"bytes_after_100x_subset\": %zu,\n"
            "    \"bytes_per_stream\": %zu,\n"
            "    \"bounded\": %s,\n"
            "    \"evicted_streams\": %zu\n"
            "  },\n"
            "  \"divergence\": {\n"
            "    \"fuzz_streams\": %zu,\n"
            "    \"stream_tx\": %zu,\n"
            "    \"within_horizon_mismatches\": %zu,\n"
            "    \"oracle_checks\": %zu,\n"
            "    \"oracle_divergences\": %zu\n"
            "  },\n"
            "  \"all_budgets_met\": %s\n"
            "}\n",
            smoke ? "true" : "false",
            static_cast<std::size_t>(std::thread::hardware_concurrency()), m,
            horizon, age_multiplier, bounded_early_ns, bounded_late_ns,
            bounded_ratio, unbounded_early_ns, unbounded_late_ns,
            unbounded_ratio, bounded.memory_bytes(), unbounded.memory_bytes(),
            bank_servers, bytes_short, bytes_long, per_stream,
            bytes_long == bytes_short ? "true" : "false", evicted_streams,
            fuzz_streams, fuzz_tx, horizon_mismatches, oracle_checks,
            oracle_divergences, all_budgets_met ? "true" : "false");
        std::fclose(out);
        std::printf("wrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
        return 1;
    }

    bench::print_metrics();
    return all_budgets_met ? 0 : 1;
}
