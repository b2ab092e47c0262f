#ifndef HPR_CORE_ONLINE_H
#define HPR_CORE_ONLINE_H

/// \file online.h
/// Streaming honest-player screening.
///
/// The batch MultiTest re-walks a server's feedback log on every call —
/// fine for assess-before-transaction, wasteful for a reputation server
/// monitoring thousands of live feedback streams.  OnlineScreener is the
/// streaming form: feed outcomes one at a time; window statistics update
/// in O(1), and the suffix ladder of §3.3 is re-evaluated only when a
/// window completes (every m feedbacks).  The ladder is the batch
/// tester's own core::run_ladder (multi_test.h), run over the retained
/// window ring, so streaming and batch share one stage count, one
/// Bonferroni correction and one trace-evidence fill; MultiTest's
/// test_naive stays the independent reference both are checked against.
///
/// **Retention horizon.**  With `max_windows = H > 0` the screener keeps
/// only the newest H complete windows' good-counts in a fixed-capacity
/// ring (allocated once, never regrown), and the suffix ladder's deepest
/// stage spans exactly the retained horizon.  Per-feedback cost is then
/// O(H/m) amortized and per-stream memory is O(H) — both independent of
/// stream age, which is what lets a serving process hold millions of
/// live screeners (docs/scaling.md, "Streaming-first assessment").
/// While the stream still fits the horizon, verdicts are identical to
/// the unbounded screener's; once it wraps, the ladder tests the
/// retained suffix only — equivalent to batch multi-testing the newest
/// H*m transactions (the property suite pins both equivalences).
/// `max_windows = 0` keeps the full window history: the ladder then
/// deepens with the stream and an evaluation costs O(windows) — the
/// pre-horizon behavior, still useful for offline forensics.
///
/// It also adds hysteresis.  A single marginal evaluation should not
/// ostracize a server (the sequential-testing problem: over a long stream
/// even an honest player will eventually graze the threshold), so
/// transitions **into and out of kSuspicious** require `patience`
/// consecutive failing / `recovery` consecutive passing evaluations.
/// From kInsufficient the asymmetry is deliberate: the first *passing*
/// evaluation establishes kClear immediately (clearing merely confirms
/// the honest prior and carries no ostracism risk), while flagging a
/// never-judged stream still requires `patience` consecutive failures.
/// tests/core/online_test.cpp pins this contract.
///
/// One deliberate difference from the batch tester: windows are anchored
/// at the *start* of the stream (feedbacks 1..m form the first window),
/// because a stream has no fixed newest end.  Window statistics are
/// order-independent within a window, so the tests are statistically
/// identical; verdicts can differ only through window phase.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/behavior_test.h"
#include "core/config.h"
#include "repsys/types.h"
#include "stats/calibrate.h"
#include "stats/empirical.h"

namespace hpr::core {

/// Streaming screener state.
enum class StreamState : std::uint8_t {
    kInsufficient,  ///< not enough complete windows to evaluate yet
    kClear,         ///< consistent with the honest-player model
    kSuspicious,    ///< flagged after `patience` consecutive failures
};

[[nodiscard]] const char* to_string(StreamState state) noexcept;

/// Configuration of the streaming screener.
struct OnlineScreenerConfig {
    MultiTestConfig test{};
    std::size_t patience = 2;  ///< consecutive failing evaluations to flag
    std::size_t recovery = 2;  ///< consecutive passing evaluations to clear

    /// Retention horizon in complete windows.  Positive: only the newest
    /// `max_windows` window good-counts are retained (fixed ring, bounded
    /// memory, O(max_windows/m) amortized per feedback).  0: unbounded —
    /// the whole window history is kept and evaluations deepen with the
    /// stream.  Positive values below `test.base.min_windows` are
    /// rejected (such a horizon could never be evaluated).
    std::size_t max_windows = 0;
};

/// Incremental multi-testing over a live outcome stream.
class OnlineScreener {
public:
    explicit OnlineScreener(OnlineScreenerConfig config = {},
                            std::shared_ptr<stats::Calibrator> calibrator = nullptr);

    /// Feed the next transaction outcome.  O(1) unless a window completes,
    /// in which case the suffix ladder is re-evaluated: O(max_windows)
    /// with a retention horizon, O(windows) unbounded.
    void observe(bool good);

    /// Feed a feedback (its rating's goodness is observed).
    void observe(const repsys::Feedback& feedback) { observe(feedback.good()); }

    [[nodiscard]] StreamState state() const noexcept { return state_; }

    /// Total outcomes observed.
    [[nodiscard]] std::size_t transactions() const noexcept { return transactions_; }

    /// Complete windows observed over the stream's lifetime (retained or
    /// not).
    [[nodiscard]] std::size_t windows() const noexcept { return windows_completed_; }

    /// Complete windows currently retained (== windows() while the
    /// stream fits the horizon; capped at max_windows once it wraps).
    [[nodiscard]] std::size_t retained_windows() const noexcept { return retained_; }

    /// Configured retention horizon (0 = unbounded).
    [[nodiscard]] std::size_t horizon() const noexcept { return config_.max_windows; }

    /// Evaluations performed (one per completed window once testable).
    [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }

    /// Did the most recent evaluation pass?  (true before any evaluation.)
    [[nodiscard]] bool last_evaluation_passed() const noexcept {
        return last_evaluation_passed_;
    }

    /// Current failing / passing streak lengths.
    [[nodiscard]] std::size_t failing_streak() const noexcept { return failing_streak_; }
    [[nodiscard]] std::size_t passing_streak() const noexcept { return passing_streak_; }

    /// p̂ over the retained complete windows, from running totals (O(1)).
    [[nodiscard]] double p_hat() const noexcept;

    /// Resident bytes of this screener (object + ring storage).  The ring
    /// is reserved at construction when a horizon is set, so this is
    /// constant for the screener's whole life — the per-stream memory
    /// bound OnlineScreener.BoundedMemoryIsConstantForLife asserts.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return sizeof(*this) +
               window_good_counts_.capacity() * sizeof(std::uint32_t);
    }

    /// The entity this screener monitors, for decision traces (obs/trace.h).
    /// Optional: screeners are keyed externally, so the default is 0.
    void set_entity(repsys::EntityId entity) noexcept { entity_ = entity; }
    [[nodiscard]] repsys::EntityId entity() const noexcept { return entity_; }

    [[nodiscard]] const OnlineScreenerConfig& config() const noexcept { return config_; }

private:
    void evaluate();

    /// Retained good-count `back` windows from the newest (0 = newest).
    [[nodiscard]] std::uint32_t good_count_from_newest(std::size_t back) const noexcept {
        if (config_.max_windows == 0) return window_good_counts_[retained_ - 1 - back];
        return window_good_counts_[(ring_head_ + retained_ - 1 - back) %
                                   window_good_counts_.size()];
    }

    OnlineScreenerConfig config_;
    repsys::EntityId entity_ = 0;
    BehaviorTest single_;

    /// Retained window good-counts.  Unbounded: append-only, oldest
    /// first.  Bounded: a ring of capacity max_windows whose oldest
    /// element sits at ring_head_ once full.
    std::vector<std::uint32_t> window_good_counts_;
    std::size_t ring_head_ = 0;         ///< oldest retained slot (bounded mode)
    std::size_t retained_ = 0;          ///< windows currently retained
    std::size_t windows_completed_ = 0; ///< lifetime complete windows
    std::uint64_t retained_good_ = 0;   ///< running good total over retained windows
    std::uint32_t current_window_good_ = 0;
    std::uint32_t current_window_fill_ = 0;
    std::size_t transactions_ = 0;

    StreamState state_ = StreamState::kInsufficient;
    bool last_evaluation_passed_ = true;
    std::size_t evaluations_ = 0;
    std::size_t failing_streak_ = 0;
    std::size_t passing_streak_ = 0;
};

}  // namespace hpr::core

#endif  // HPR_CORE_ONLINE_H
