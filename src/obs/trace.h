#ifndef HPR_OBS_TRACE_H
#define HPR_OBS_TRACE_H

/// \file trace.h
/// Decision tracing: per-assessment audit trails for the screening pipeline.
///
/// The paper's contribution is an *explainable* verdict — a server is
/// rejected because a specific suffix of its history failed the L1
/// distance test against B(m, p̂) at a calibrated ε, possibly after
/// collusion-aware reordering — yet a boolean verdict and aggregate
/// counters (obs/metrics.h) cannot answer "why was server S flagged at
/// time t?".  This header adds the missing evidence layer:
///
///  * DecisionRecord — the structured evidence behind one verdict: every
///    tested suffix length with its L1 distance vs ε, p̂, window size m,
///    a collusion-reorder permutation summary, the supplementary runs
///    test, the final trust value, and timing spans;
///  * TraceContext   — an RAII per-assessment context.  Instrumented code
///    deep in the call stack (the suffix ladder, the reorderer, the
///    calibrator) reaches the active context through a thread-local
///    pointer, so no signature in the screening pipeline changes;
///  * TraceSpan      — an RAII nested timing span recorded into the
///    active context (phase-1 ladder, collusion reordering, phase-2
///    trust, cold Monte-Carlo runs);
///  * TraceRing      — a bounded multi-producer ring the finished records
///    land in (oldest evicted first), drained by `reputation_server
///    --trace-dump` and by tests;
///  * Tracer         — ties the above together: trace-id allocation,
///    deterministic sampling, the ring, runtime knobs.
///
/// Cost model: tracing honors the process-wide obs kill switch — with
/// `obs::set_enabled(false)` every trace site reduces to one relaxed
/// atomic load and a predictable branch.  With obs enabled but the tracer
/// inactive (the default) a site additionally reads the tracer's enabled
/// flag or a thread-local pointer; only a *sampled* assessment pays for
/// record building (bench/obs_overhead measures all lanes and enforces a
/// combined metrics+tracing budget of <2% on the assessment hot path).
///
/// Records export as JSONL (one `to_jsonl` object per line) and parse
/// back with `from_jsonl`, which is what `examples/trace_query` uses to
/// reconstruct flagging forensics from a dump.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace hpr::obs {

/// Evidence of one suffix-ladder stage: the single behavior test applied
/// to the most recent `suffix_length` transactions.
struct StageEvidence {
    std::uint64_t suffix_length = 0;  ///< transactions in the tested suffix
    std::uint64_t windows = 0;        ///< complete windows k the stage saw
    double p_hat = 0.0;               ///< estimated trust value of the suffix
    double distance = 0.0;            ///< measured distribution distance d
    double epsilon = 0.0;             ///< calibrated threshold ε
    bool sufficient = false;          ///< enough windows to be meaningful
    bool passed = true;               ///< d <= ε (or insufficient evidence)

    /// Signed slack ε - d; negative when the stage failed.
    [[nodiscard]] double margin() const noexcept { return epsilon - distance; }

    friend bool operator==(const StageEvidence&, const StageEvidence&) = default;
};

/// Summary of the §4 issuer-reordering permutation applied before a
/// collusion-resilient test.
struct ReorderSummary {
    bool applied = false;
    std::uint64_t issuers = 0;        ///< distinct feedback issuers
    std::uint64_t largest_group = 0;  ///< feedbacks from the most frequent issuer
    double displaced_fraction = 0.0;  ///< fraction of positions the permutation moved

    friend bool operator==(const ReorderSummary&, const ReorderSummary&) = default;
};

/// Supplementary Wald-Wolfowitz runs-test evidence.
struct RunsEvidence {
    bool evaluated = false;
    bool passed = true;
    double z = 0.0;            ///< standardized runs statistic
    double z_threshold = 0.0;  ///< two-sided acceptance bound

    friend bool operator==(const RunsEvidence&, const RunsEvidence&) = default;
};

/// One completed timing span.  Spans are appended in *completion* order;
/// `depth` reconstructs the nesting (0 = outermost).
struct SpanRecord {
    std::string name;
    std::uint32_t depth = 0;
    double start_seconds = 0.0;     ///< offset from the trace start
    double duration_seconds = 0.0;

    friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// The full audit trail behind one screening decision.
struct DecisionRecord {
    std::uint64_t trace_id = 0;
    std::string source;            ///< "two_phase" or "online_screener"
    std::uint64_t server = 0;      ///< subject entity (0 when unknown)
    double wall_time = 0.0;        ///< seconds since the Unix epoch at trace start
    std::string verdict;           ///< assessor verdict or screener stream state
    std::string transition;        ///< "flagged"/"recovered" on a state change, else empty
    std::optional<double> trust;   ///< phase-2 trust value, when one was produced
    std::string mode;              ///< screening mode ("none"/"single"/"multi")
    bool collusion_resilient = false;
    std::uint32_t window_size = 0;      ///< m
    std::uint64_t history_length = 0;   ///< transactions considered
    double p_hat = 0.0;                 ///< p̂ of the longest evaluated suffix
    double min_margin = 0.0;            ///< smallest ε - d across evaluated stages
    std::optional<StageEvidence> failed;  ///< shortest failing stage, if any
    ReorderSummary reorder;
    RunsEvidence runs;
    std::vector<StageEvidence> stages;  ///< shortest suffix first
    std::vector<SpanRecord> spans;
};

/// One-line JSON rendering of a record (no trailing newline).  Numbers
/// are printed with 17 significant digits so doubles round-trip exactly;
/// absent optionals (`trust`, `failed`) and unapplied sub-objects
/// (`reorder`, `runs`) are omitted.  docs/observability.md documents the
/// schema key by key.
[[nodiscard]] std::string to_jsonl(const DecisionRecord& record);

/// Parse a to_jsonl() line back into a record.  Unknown keys are skipped,
/// so the format can grow forward-compatibly.  \returns false (leaving
/// `out` unspecified) on malformed input.
[[nodiscard]] bool from_jsonl(std::string_view line, DecisionRecord& out);

/// Bounded multi-producer ring of finished decision records.  push() is a
/// short mutex-protected O(1) splice — tracing samples, so contention is
/// rare by construction; when full the *oldest* record is evicted.
class TraceRing {
public:
    /// \throws std::invalid_argument if capacity is zero.
    explicit TraceRing(std::size_t capacity);

    /// Append a record, evicting the oldest when the ring is full.
    void push(DecisionRecord&& record);

    /// Remove and return every retained record, oldest first.
    [[nodiscard]] std::vector<DecisionRecord> drain();

    /// Copy of every retained record, oldest first, WITHOUT removing
    /// them — the live `/traces` scrape (net/endpoints.h) reads the ring
    /// repeatedly and must not steal records from a later forensics
    /// drain.
    [[nodiscard]] std::vector<DecisionRecord> snapshot() const;

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t size() const;

    /// Lifetime totals: records ever pushed / evicted by wrap-around.
    /// pushed() == evicted() + drained-so-far + size().
    [[nodiscard]] std::uint64_t pushed() const;
    [[nodiscard]] std::uint64_t evicted() const;

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::vector<DecisionRecord> slots_;
    std::size_t head_ = 0;  ///< index of the oldest record
    std::size_t size_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t evicted_ = 0;
};

/// Tracer tuning knobs (fixed at construction except where noted).
struct TracerConfig {
    std::size_t ring_capacity = 256;

    /// Probability an assessment is traced, in [0, 1].  Runtime-settable
    /// via Tracer::set_sample_rate().
    double sample_rate = 1.0;

    /// Seed of the deterministic sampling decision: trace id `i` is
    /// sampled iff splitmix64(seed ^ i) falls under the rate threshold,
    /// so a fixed seed replays the same keep/drop sequence.
    std::uint64_t seed = 0x7261636574ULL;

    /// Master switch, runtime-settable.  Off by default: tracing is
    /// opt-in (`reputation_server --trace-dump/--trace-sample`, tests).
    bool enabled = false;
};

/// Trace-id allocation, sampling and record collection.  Thread-safe.
class Tracer {
public:
    explicit Tracer(TracerConfig config = {});

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Master switch (relaxed atomic; honored on top of obs::enabled()).
    void set_enabled(bool enabled) noexcept;
    [[nodiscard]] bool active() const noexcept;

    /// Clamp to [0, 1] and apply to future sampling decisions.
    void set_sample_rate(double rate) noexcept;
    [[nodiscard]] double sample_rate() const noexcept;

    /// Monotone per-tracer id sequence, starting at 1.
    [[nodiscard]] std::uint64_t next_trace_id() noexcept;

    /// Deterministic sampling decision for an id (pure function of the
    /// seed, the id and the current rate).
    [[nodiscard]] bool sampled(std::uint64_t trace_id) const noexcept;

    [[nodiscard]] TraceRing& ring() noexcept { return ring_; }
    [[nodiscard]] const TracerConfig& config() const noexcept { return config_; }

private:
    TracerConfig config_;
    std::atomic<bool> enabled_;
    std::atomic<std::uint64_t> rate_threshold_;  ///< sample iff hash>>32 < this
    std::atomic<std::uint64_t> next_id_{1};
    TraceRing ring_;
};

/// The process-wide tracer every built-in instrumentation site records
/// into (leaked, like default_registry(), for static-destruction safety).
[[nodiscard]] Tracer& default_tracer();

/// RAII per-assessment trace.  Construction decides once whether this
/// assessment is traced (obs kill switch on, tracer active, id sampled);
/// when it is, the context registers itself in a thread-local slot that
/// nested instrumentation reaches via current(), and destruction commits
/// the finished record to the tracer's ring.  Unsampled contexts are
/// inert: no allocation, no clock read, no thread-local write.
///
/// Contexts nest per thread (the innermost wins current()); they must be
/// destroyed in reverse construction order, which RAII guarantees.
class TraceContext {
public:
    TraceContext(Tracer& tracer, std::uint64_t server, std::string_view source);
    ~TraceContext();

    TraceContext(const TraceContext&) = delete;
    TraceContext& operator=(const TraceContext&) = delete;

    /// The innermost sampled context on this thread, or nullptr when none
    /// is open or instrumentation is globally disabled.  The disabled
    /// path is one relaxed load + branch.
    [[nodiscard]] static TraceContext* current() noexcept;

    [[nodiscard]] bool recording() const noexcept { return record_.has_value(); }

    /// The record under construction; nullptr when not sampled.
    [[nodiscard]] DecisionRecord* record() noexcept {
        return record_ ? &*record_ : nullptr;
    }

private:
    friend class TraceSpan;

    Tracer* tracer_ = nullptr;
    std::optional<DecisionRecord> record_;
    Stopwatch watch_;
    TraceContext* prev_ = nullptr;
    std::uint32_t open_depth_ = 0;
};

/// RAII nested timing span recorded into the active TraceContext (inert
/// when none is open or when obs is disabled).  `name` must outlive the
/// span (string literals in practice).
class TraceSpan {
public:
    explicit TraceSpan(const char* name) noexcept { open(name); }
    ~TraceSpan() {
        if (context_ != nullptr) close();
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

private:
    void open(const char* name) noexcept;
    void close() noexcept;

    TraceContext* context_ = nullptr;
    const char* name_ = nullptr;
    double start_ = 0.0;
    std::uint32_t depth_ = 0;
};

}  // namespace hpr::obs

#endif  // HPR_OBS_TRACE_H
