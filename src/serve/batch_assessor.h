#ifndef HPR_SERVE_BATCH_ASSESSOR_H
#define HPR_SERVE_BATCH_ASSESSOR_H

/// \file batch_assessor.h
/// Streaming-first serving core: incremental screening as the primary
/// assessment path, parallel batch re-assessment as the cross-check
/// oracle.
///
/// A reputation server answering "which of these servers can be trusted
/// right now?" for a large population cannot afford one thread walking
/// one history at a time — the assessment layer has to keep up with the
/// whole community's transaction rate.  BatchAssessor therefore serves
/// from two paths:
///
/// **Primary — the streaming screener bank.**  One
/// core::OnlineScreener per observed server, lock-striped like the
/// store, each bounded to `screener_horizon` complete windows of
/// retained state, and beside it one repsys::TrustAccumulator of the
/// phase-2 trust function with a count of the feedbacks it has folded.
/// Feedbacks stream in through observe() at O(1) amortized per feedback,
/// both halves fed the same outcomes under the same stripe lock.
/// assess() answers from the stream's standing state:
///
///  * suspicious streams are rejected without the O(n) history rescan;
///  * clear streams read the folded trust, one double, in O(1).  That
///    value is TrustFunction::evaluate over the folded feedbacks, which
///    are the store's log exactly when FeedbackStore::history_extent()
///    reports nothing trimmed from the log's front and a length equal to
///    the folded count.  Otherwise — the stream was created after the
///    store already held feedback for its server, evict_before trimmed
///    the log, or the two sides are mid-batch — phase 2 re-folds a
///    history snapshot, so the trust served is always that of a log the
///    store held;
///  * insufficient streams, not yet judged, take the full two-phase scan.
///
/// The fold matches the store as long as each server's feedbacks reach
/// observe() in the order the store committed them, and the streams of
/// servers the store forgets are dropped (drop_streams() with
/// evict_before's `forgotten` list) before the server is recorded
/// again.  The bank's memory is bounded: horizon-bounded rings per
/// stream, and drop_streams()/evict_streams() tie stream retention to
/// FeedbackStore's eviction machinery, so evicting a server's cold
/// history also releases its screener.  Streaming verdicts follow the
/// streaming semantics (start-anchored windows, patience/recovery
/// hysteresis at the core::OnlineScreenerConfig defaults), so they are
/// intentionally NOT bit-identical to batch screening; over the retained
/// horizon they agree with batch multi-testing of the newest horizon*m
/// transactions (bench/streaming_steady_state enforces zero divergence).
///
/// **Oracle — parallel batch re-assessment.**  assess_batch() (and
/// assess()/assess_all() for never-observed servers) fans a set of
/// server ids across a stats::ThreadPool: each worker takes a
/// snapshot-consistent copy of its server's history from the sharded
/// FeedbackStore and runs the shared TwoPhaseAssessor on it.  Results
/// are deterministic: the pool decides only which thread assesses a
/// server, never what the assessment computes, so verdicts are
/// bit-identical to a sequential loop at any thread count.  This is the
/// equivalence-tested ground truth the streaming path is checked
/// against.

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/online.h"
#include "core/two_phase.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "stats/calibrate.h"
#include "stats/thread_pool.h"

namespace hpr::serve {

/// Tuning knobs of the serving layer.
struct BatchAssessorConfig {
    /// The per-server assessment everything fans out to.
    core::TwoPhaseConfig assessment{};

    /// Total assessing threads (pool workers + the participating caller).
    /// 0 = one per hardware thread.  Purely a speed knob: batch results
    /// are bit-identical at any thread count.
    std::size_t threads = 0;

    /// Retention horizon, in complete windows, of each streaming
    /// screener (core::OnlineScreenerConfig::max_windows; the screeners'
    /// test config is taken from `assessment.test`).  Bounded by default
    /// so the bank's resident memory is O(tracked servers), not
    /// O(stream age); 0 keeps unbounded per-stream state.
    std::size_t screener_horizon = 64;
};

/// One server's assessment out of a batch.
struct ServerAssessment {
    repsys::EntityId server = 0;
    core::Assessment assessment;
};

/// Thread-parallel assessment of server populations against a
/// FeedbackStore.  Thread-safe: any number of threads may call assess /
/// observe / drop_streams concurrently (the underlying calibration cache
/// is shared and thread-safe, the screener bank is lock-striped).
class BatchAssessor {
public:
    /// \param trust  phase-2 trust function (must not be null).
    /// \throws std::invalid_argument if trust is null.
    BatchAssessor(BatchAssessorConfig config,
                  std::shared_ptr<const repsys::TrustFunction> trust,
                  std::shared_ptr<stats::Calibrator> calibrator = nullptr);

    ~BatchAssessor();  // out of line: ScreenerStripe is incomplete here

    /// Assess the given servers against the store, fanning across the
    /// pool.  Streaming-first: servers with a judged screener answer
    /// from its standing state; the rest take the full two-phase scan.
    /// Results arrive in the order of `servers`.
    /// \throws std::out_of_range if any id is unknown to the store.
    [[nodiscard]] std::vector<ServerAssessment> assess(
        const repsys::FeedbackStore& store,
        const std::vector<repsys::EntityId>& servers) const;

    /// Assess every server the store knows (ascending id order).
    [[nodiscard]] std::vector<ServerAssessment> assess_all(
        const repsys::FeedbackStore& store) const;

    /// The cross-check oracle: full two-phase re-assessment of every
    /// requested server, ignoring the screener bank entirely.
    /// Bit-identical to the sequential TwoPhaseAssessor loop at any
    /// thread count.
    [[nodiscard]] std::vector<ServerAssessment> assess_batch(
        const repsys::FeedbackStore& store,
        const std::vector<repsys::EntityId>& servers) const;

    /// One server's assess() result with the stream state it was answered
    /// from and the length of the history its trust covers.
    struct ServedAssessment {
        core::Assessment assessment;
        core::StreamState stream_state = core::StreamState::kInsufficient;
        std::size_t history_length = 0;  ///< 0 for a server the store forgot
    };

    /// assess() of a single server, inline on the caller, returning what
    /// it read on the way: each of the bank stripe and the store shard is
    /// locked once (twice on the clear-stream snapshot fallback).
    /// \throws std::out_of_range if the store does not know the server
    ///         and its stream is not suspicious.
    [[nodiscard]] ServedAssessment assess_served(const repsys::FeedbackStore& store,
                                                 repsys::EntityId server) const;

    /// Feed one live feedback to its server's stream (created on first
    /// sight): screener and trust accumulator.  O(1) amortized.
    void observe(const repsys::Feedback& feedback);

    /// Standing stream state of a server's screener; kInsufficient for
    /// servers never observed.
    [[nodiscard]] core::StreamState stream_state(repsys::EntityId server) const;

    /// Point-in-time detail of one live screener, copied under its
    /// stripe lock (see stream_info()).
    struct StreamInfo {
        core::StreamState state = core::StreamState::kInsufficient;
        std::size_t transactions = 0;      ///< outcomes observed, lifetime
        std::size_t windows = 0;           ///< complete windows, lifetime
        std::size_t retained_windows = 0;  ///< windows inside the horizon
        std::size_t horizon = 0;           ///< configured retention (0 = unbounded)
        std::size_t evaluations = 0;       ///< ladder evaluations performed
        std::size_t failing_streak = 0;
        std::size_t passing_streak = 0;
        double p_hat = 0.0;                ///< over the retained windows
        std::size_t memory_bytes = 0;      ///< screener object + ring storage
    };

    /// Full standing state of a server's screener — what the live
    /// `/servers/<id>` introspection page renders; std::nullopt for
    /// servers never observed.
    [[nodiscard]] std::optional<StreamInfo> stream_info(
        repsys::EntityId server) const;

    /// Drop the screeners of the given servers (e.g. the `forgotten`
    /// output of FeedbackStore::evict_before).  Returns how many live
    /// screeners were released.
    std::size_t drop_streams(std::span<const repsys::EntityId> servers);

    /// Sync the bank against the store: drop every screener whose server
    /// the store no longer knows (full retention reconciliation; prefer
    /// drop_streams with evict_before's `forgotten` list when available).
    /// Returns how many screeners were released.
    std::size_t evict_streams(const repsys::FeedbackStore& store);

    /// Number of servers with a live screener.
    [[nodiscard]] std::size_t tracked_streams() const;

    /// Resident bytes of the screener bank (screener objects + ring
    /// storage + trust accumulators + an estimate of the map-node
    /// overhead).  The hpr_serving_screener_bytes gauge is maintained
    /// incrementally as streams are created and dropped — exact under a
    /// bounded horizon, where a stream's footprint is constant for life —
    /// and this full recount republishes it (the authoritative value
    /// when screener_horizon is 0 and rings grow).
    [[nodiscard]] std::size_t stream_memory_bytes() const;

    /// Resolved executor count (pool workers + the caller).
    [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

    [[nodiscard]] const BatchAssessorConfig& config() const noexcept { return config_; }
    [[nodiscard]] const core::TwoPhaseAssessor& assessor() const noexcept {
        return assessor_;
    }

private:
    struct ScreenerStripe;

    /// Assess one server: streaming shortcut when possible (and allowed),
    /// else the full two-phase scan of a shard-consistent snapshot.
    [[nodiscard]] ServedAssessment assess_one(const repsys::FeedbackStore& store,
                                              repsys::EntityId server,
                                              bool use_streams) const;

    [[nodiscard]] std::vector<ServerAssessment> assess_impl(
        const repsys::FeedbackStore& store,
        const std::vector<repsys::EntityId>& servers, bool use_streams) const;

    [[nodiscard]] ScreenerStripe& stripe_for(repsys::EntityId server) const;

    BatchAssessorConfig config_;
    core::TwoPhaseAssessor assessor_;
    std::size_t threads_;
    mutable stats::ThreadPool pool_;
    std::vector<std::unique_ptr<ScreenerStripe>> stripes_;
};

}  // namespace hpr::serve

#endif  // HPR_SERVE_BATCH_ASSESSOR_H
