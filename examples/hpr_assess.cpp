// hpr_assess — command-line two-phase trust assessment of a CSV feedback
// log (the format of repsys/io.h: `time,server,client,rating`).
//
//   build/examples/hpr_assess [options] [feedback.csv]
//
// Options:
//   --trust SPEC       phase-2 trust function: average | average:<prior> |
//                      weighted[:<lambda>] | beta | decay[:<gamma>]
//                      (default: average)
//   --mode MODE        screening: none | single | multi   (default: multi)
//   --collusion        screen the issuer-reordered sequence (paper §4)
//   --adaptive         additionally run drift-tolerant segmented testing
//   --bonferroni       family-wise correction across suffix stages
//   --window N         transactions per window              (default: 10)
//   --confidence C     calibration confidence               (default: 0.95)
//   --threshold T      acceptance threshold to report against (default: 0.9)
//
// With no CSV argument a demo log is generated and assessed, so the tool
// is runnable out of the box.
//
// Exit status: 0 not suspicious, 3 suspicious, 1 unreadable log or trust
// spec, 2 malformed command line.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "flags.h"
#include "core/changepoint.h"
#include "core/config.h"
#include "core/two_phase.h"
#include "repsys/history.h"
#include "repsys/io.h"
#include "repsys/trust.h"
#include "sim/generators.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

struct Options {
    std::string csv;
    std::string trust = "average";
    core::ScreeningMode mode = core::ScreeningMode::kMulti;
    bool collusion = false;
    bool adaptive = false;
    bool bonferroni = false;
    std::uint32_t window = 10;
    double confidence = 0.95;
    double threshold = 0.9;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
    if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
    std::fprintf(stderr,
                 "usage: %s [--trust SPEC] [--mode none|single|multi] "
                 "[--collusion] [--adaptive] [--bonferroni]\n"
                 "          [--window N] [--confidence C] [--threshold T] "
                 "[feedback.csv]\n",
                 argv0);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--trust") {
            options.trust = next();
        } else if (arg == "--mode") {
            const std::string mode = next();
            if (mode == "none") {
                options.mode = core::ScreeningMode::kNone;
            } else if (mode == "single") {
                options.mode = core::ScreeningMode::kSingle;
            } else if (mode == "multi") {
                options.mode = core::ScreeningMode::kMulti;
            } else {
                usage(argv[0], ("unknown mode '" + mode + "'").c_str());
            }
        } else if (arg == "--collusion") {
            options.collusion = true;
        } else if (arg == "--adaptive") {
            options.adaptive = true;
        } else if (arg == "--bonferroni") {
            options.bonferroni = true;
        } else if (arg == "--window") {
            const std::string value = next();
            std::size_t window = 0;
            if (!parse_flag_size(value.c_str(), 1, window) || window > UINT32_MAX) {
                usage(argv[0], ("bad window size '" + value + "'").c_str());
            }
            options.window = static_cast<std::uint32_t>(window);
        } else if (arg == "--confidence") {
            const std::string value = next();
            if (!parse_flag_unit(value.c_str(), options.confidence) ||
                options.confidence == 0.0 || options.confidence == 1.0) {
                usage(argv[0], ("confidence must be in (0, 1), got '" + value + "'").c_str());
            }
        } else if (arg == "--threshold") {
            const std::string value = next();
            if (!parse_flag_unit(value.c_str(), options.threshold)) {
                usage(argv[0], ("threshold must be in [0, 1], got '" + value + "'").c_str());
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0], ("unknown option '" + arg + "'").c_str());
        } else {
            options.csv = arg;
        }
    }
    return options;
}

std::string demo_log() {
    stats::Rng rng{2718};
    const auto history = sim::hibernating_history(500, 22, 0.95, rng);
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_assess_demo.csv").string();
    repsys::save_csv(path, history);
    std::printf("(no CSV given; assessing a generated hibernating-attack demo "
                "log: %s)\n\n",
                path.c_str());
    return path;
}

}  // namespace

int main(int argc, char** argv) {
    Options options = parse(argc, argv);
    if (options.csv.empty()) options.csv = demo_log();

    repsys::TransactionHistory history;
    try {
        history = repsys::load_csv(options.csv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot load '%s': %s\n", options.csv.c_str(), e.what());
        return 1;
    }

    core::TwoPhaseConfig config;
    config.mode = options.mode;
    config.collusion_resilient = options.collusion;
    config.test.base.window_size = options.window;
    config.test.base.confidence = options.confidence;
    config.test.bonferroni = options.bonferroni;
    config.test.collect_details = true;
    config.test.stop_on_failure = false;

    std::unique_ptr<const repsys::TrustFunction> trust;
    try {
        trust = repsys::make_trust_function(options.trust);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    const core::TwoPhaseAssessor assessor{
        config, std::shared_ptr<const repsys::TrustFunction>{std::move(trust)}};

    std::printf("history: %zu feedbacks, %zu distinct clients, good ratio %.4f\n",
                history.size(), history.distinct_clients(), history.good_ratio());
    const core::Assessment assessment = assessor.assess(history);
    std::printf("screening (%s%s): %s",
                core::to_string(options.mode),
                options.collusion ? ", issuer-reordered" : "",
                assessment.screening.passed ? "PASS" : "FAIL");
    if (assessment.screening.sufficient) {
        std::printf("  [%zu stage(s), min margin %+.4f]",
                    assessment.screening.stages_run, assessment.screening.min_margin);
    } else if (options.mode != core::ScreeningMode::kNone) {
        std::printf("  [history too short to screen]");
    }
    std::printf("\n");
    if (assessment.screening.failure) {
        std::printf("  first failing suffix: %zu transactions (d=%.4f > eps=%.4f "
                    "at p̂=%.4f)\n",
                    assessment.screening.failed_suffix_length.value_or(0),
                    assessment.screening.failure->distance,
                    assessment.screening.failure->threshold,
                    assessment.screening.failure->p_hat);
    }
    std::printf("verdict: %s\n", core::to_string(assessment.verdict));
    if (assessment.trust) {
        std::printf("trust (%s): %.4f -> %s at threshold %.2f\n",
                    assessor.trust_function().name().c_str(), *assessment.trust,
                    *assessment.trust >= options.threshold ? "ACCEPT" : "REJECT",
                    options.threshold);
    } else {
        std::printf("trust: withheld (suspicious history)\n");
    }

    if (options.adaptive) {
        core::BehaviorTestConfig base = config.test.base;
        const core::AdaptiveBehaviorTest adaptive{base, {}};
        const auto result = adaptive.test(history.view());
        std::printf("\nadaptive (drift-tolerant) testing: %s, %zu regime(s)\n",
                    result.passed ? "PASS" : "FAIL", result.segments.size());
        for (std::size_t i = 0; i < result.segments.size(); ++i) {
            const auto& s = result.segments[i];
            std::printf("  regime %zu: windows [%zu, %zu) p=%.3f -> %s\n", i,
                        s.begin_window, s.end_window, s.p,
                        result.per_segment[i].passed ? "consistent" : "suspicious");
        }
    }
    return assessment.verdict == core::Verdict::kSuspicious ? 3 : 0;
}
