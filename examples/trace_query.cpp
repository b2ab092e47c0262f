// Forensics over a decision-trace dump: filter the JSONL emitted by
// `reputation_server --trace-dump` (or any obs::to_jsonl producer) down
// to the records that answer "why was server S flagged?".
//
//   build/examples/trace_query <file|-|--url=HOST:PORT>
//                              [--server=ID] [--verdict=V]
//                              [--source=S] [--failing] [--margin-below=X]
//                              [--limit=N] [--jsonl]
//
// `--url=HOST:PORT` pulls `/traces` from a live daemon's introspection
// endpoint (net/http_client.h) instead of reading a file — forensics
// against a running `reputation_server --listen=PORT` without a dump
// step in between.
//
// By default every match prints as a human-readable evidence summary —
// the failing suffix length, its L1 distance vs the calibrated ε, p̂, the
// reorder permutation summary.  `--jsonl` re-emits the raw matching lines
// instead, so queries compose:
//
//   reputation_server --trace-dump | trace_query - --server=4 --jsonl
//       | trace_query - --margin-below=0
//
// Lines that do not parse as DecisionRecords (the workload's own output,
// metric dumps) are skipped, so piping the server's full stdout works.
// Exits 0 when at least one record matched, 1 otherwise, and 2 (after
// printing usage) on a malformed flag such as `--limit=-1`.
//
// Exercises: obs::from_jsonl / obs::to_jsonl, obs::DecisionRecord,
// net::http_get.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "flags.h"
#include "net/http_client.h"
#include "obs/trace.h"

using hpr::obs::DecisionRecord;
using hpr::obs::StageEvidence;

namespace {

struct Query {
    std::string path;
    std::string url_host;         ///< nonempty = scrape /traces instead
    std::uint16_t url_port = 0;
    std::optional<std::uint64_t> server;
    std::optional<std::string> verdict;
    std::optional<std::string> source;
    bool failing_only = false;
    std::optional<double> margin_below;
    std::optional<std::size_t> limit;
    bool raw_jsonl = false;
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <file|-|--url=HOST:PORT> [options]\n"
                 "  --url=HOST:PORT   pull /traces from a live daemon instead\n"
                 "                    of reading a file (HOST is an IPv4\n"
                 "                    literal, e.g. 127.0.0.1:9100)\n"
                 "  --server=ID       keep records about this entity\n"
                 "  --verdict=V       keep records with this verdict\n"
                 "                    (suspicious, assessed, insufficient-history,\n"
                 "                     clear, insufficient)\n"
                 "  --source=S        keep records from this pipeline\n"
                 "                    (two_phase, online_screener)\n"
                 "  --failing         keep records with a failing stage\n"
                 "  --margin-below=X  keep records whose min margin (eps - d) < X\n"
                 "  --limit=N         print at most N matches\n"
                 "  --jsonl           re-emit raw matching lines instead of summaries\n",
                 argv0);
    return 2;
}

bool parse_url(const char* spec, Query& query) {
    const char* colon = std::strrchr(spec, ':');
    if (colon == nullptr || colon == spec) return false;
    std::size_t port = 0;
    if (!parse_flag_size(colon + 1, 1, port) || port > 65535) return false;
    query.url_host.assign(spec, static_cast<std::size_t>(colon - spec));
    query.url_port = static_cast<std::uint16_t>(port);
    return true;
}

bool parse_args(int argc, char** argv, Query& query) {
    if (argc < 2) return false;
    if (std::strncmp(argv[1], "--url=", 6) == 0) {
        if (!parse_url(argv[1] + 6, query)) return false;
    } else {
        query.path = argv[1];
    }
    for (int i = 2; i < argc; ++i) {
        const char* arg = argv[i];
        const auto value_of = [&](const char* prefix) -> const char* {
            const std::size_t len = std::strlen(prefix);
            return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
        };
        if (const char* server = value_of("--server=")) {
            std::size_t id = 0;
            if (!parse_flag_size(server, 0, id)) return false;
            query.server = id;
        } else if (const char* verdict = value_of("--verdict=")) {
            query.verdict = verdict;
        } else if (const char* source = value_of("--source=")) {
            query.source = source;
        } else if (std::strcmp(arg, "--failing") == 0) {
            query.failing_only = true;
        } else if (const char* margin = value_of("--margin-below=")) {
            double x = 0.0;
            if (!parse_flag_double(margin, x)) return false;
            query.margin_below = x;
        } else if (const char* limit = value_of("--limit=")) {
            std::size_t n = 0;
            if (!parse_flag_size(limit, 0, n)) return false;
            query.limit = n;
        } else if (std::strcmp(arg, "--jsonl") == 0) {
            query.raw_jsonl = true;
        } else {
            return false;
        }
    }
    return true;
}

bool matches(const Query& query, const DecisionRecord& record) {
    if (query.server && record.server != *query.server) return false;
    if (query.verdict && record.verdict != *query.verdict) return false;
    if (query.source && record.source != *query.source) return false;
    if (query.failing_only && !record.failed.has_value()) return false;
    if (query.margin_below) {
        // Prefer the recorded minimum; a failing stage is the evidence
        // when the record predates margin bookkeeping.
        double margin = record.min_margin;
        if (record.failed) margin = std::min(margin, record.failed->margin());
        if (!(margin < *query.margin_below)) return false;
    }
    return true;
}

void print_summary(const DecisionRecord& record) {
    std::printf("trace %llu  %-15s server=%llu  verdict=%s",
                static_cast<unsigned long long>(record.trace_id),
                record.source.c_str(),
                static_cast<unsigned long long>(record.server),
                record.verdict.c_str());
    if (!record.transition.empty()) {
        std::printf(" (%s)", record.transition.c_str());
    }
    std::printf("\n  history=%llu tx  m=%u  p_hat=%.4f  stages=%zu",
                static_cast<unsigned long long>(record.history_length),
                record.window_size, record.p_hat, record.stages.size());
    if (!record.stages.empty()) std::printf("  min_margin=%.5f", record.min_margin);
    if (record.trust) std::printf("  trust=%.4f", *record.trust);
    std::printf("\n");
    if (record.failed) {
        const StageEvidence& f = *record.failed;
        std::printf("  FAILED suffix=%llu tx (%llu windows): d=%.5f > eps=%.5f "
                    "(margin %.5f, p_hat %.4f)\n",
                    static_cast<unsigned long long>(f.suffix_length),
                    static_cast<unsigned long long>(f.windows), f.distance,
                    f.epsilon, f.margin(), f.p_hat);
    }
    if (record.reorder.applied) {
        std::printf("  reorder: %llu issuers, largest group %llu, %.1f%% of "
                    "positions moved\n",
                    static_cast<unsigned long long>(record.reorder.issuers),
                    static_cast<unsigned long long>(record.reorder.largest_group),
                    100.0 * record.reorder.displaced_fraction);
    }
    if (record.runs.evaluated) {
        std::printf("  runs test: %s (z=%.3f, bound %.3f)\n",
                    record.runs.passed ? "passed" : "FAILED", record.runs.z,
                    record.runs.z_threshold);
    }
}

}  // namespace

int main(int argc, char** argv) {
    Query query;
    if (!parse_args(argc, argv, query)) return usage(argv[0]);

    std::ifstream file;
    std::istringstream fetched;
    std::istream* in = &std::cin;
    if (!query.url_host.empty()) {
        // Push the entity filter down to the daemon when we have one;
        // everything else still filters locally.
        std::string target = "/traces";
        if (query.server) target += "?server=" + std::to_string(*query.server);
        const auto result =
            hpr::net::http_get(query.url_host, query.url_port, target);
        if (!result || result->status != 200) {
            std::fprintf(stderr,
                         "trace_query: GET %s:%u%s failed%s\n",
                         query.url_host.c_str(), query.url_port, target.c_str(),
                         result ? (" (HTTP " + std::to_string(result->status) +
                                   ")").c_str()
                                : " (no response)");
            return 2;
        }
        fetched.str(result->body);
        in = &fetched;
    } else if (query.path != "-") {
        file.open(query.path);
        if (!file) {
            std::fprintf(stderr, "trace_query: cannot open '%s'\n",
                         query.path.c_str());
            return 2;
        }
        in = &file;
    }

    std::size_t parsed = 0;
    std::size_t matched = 0;
    std::size_t printed = 0;
    std::string line;
    while (std::getline(*in, line)) {
        DecisionRecord record;
        if (!hpr::obs::from_jsonl(line, record)) continue;  // not a trace line
        ++parsed;
        if (!matches(query, record)) continue;
        ++matched;
        if (query.limit && printed >= *query.limit) continue;
        ++printed;
        if (query.raw_jsonl) {
            std::printf("%s\n", line.c_str());
        } else {
            print_summary(record);
        }
    }
    if (!query.raw_jsonl) {
        std::printf("matched %zu of %zu decision records\n", matched, parsed);
    }
    return matched > 0 ? 0 : 1;
}
