#ifndef HPR_CORE_CHANGEPOINT_H
#define HPR_CORE_CHANGEPOINT_H

/// \file changepoint.h
/// Change-point detection and drift-tolerant behavior testing.
///
/// The paper assumes a static trust value for simplicity and notes that
/// "our techniques can be easily extended to handle dynamic cases"
/// (§3.1); its future work (§7) asks for models covering factors such as
/// time and dates.  This module is that extension.
///
/// ChangePointDetector segments a history's per-window good counts into
/// maximal runs that each look like one binomial: binary segmentation
/// maximizing the binomial log-likelihood-ratio gain, accepted when the
/// gain clears a BIC-style penalty.  An honest player whose uncontrollable
/// quality shifted (an ISP upgrade, a new shipping partner) yields a few
/// long segments; a manipulating attacker yields either rigid
/// within-segment patterns or implausibly many segments.
///
/// AdaptiveBehaviorTest runs the §3.2 distribution test *within each
/// segment*, so honest drift stops raising false alarms while
/// within-regime manipulation is still caught.  It reports the segments,
/// making it double as the paper's suggested tool for "adaptively
/// discovering important factors about a system".

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/behavior_test.h"
#include "core/config.h"
#include "core/window_stats.h"
#include "repsys/types.h"
#include "stats/calibrate.h"

namespace hpr::core {

/// A maximal run of windows consistent with one Bernoulli parameter.
struct Segment {
    std::size_t begin_window = 0;  ///< first window index (oldest-first order)
    std::size_t end_window = 0;    ///< one past the last window
    double p = 0.0;                ///< fitted per-transaction success rate

    [[nodiscard]] std::size_t windows() const noexcept {
        return end_window - begin_window;
    }
};

/// A detected change between two segments.
struct ChangePoint {
    std::size_t window_index = 0;  ///< first window of the new regime
    double p_before = 0.0;
    double p_after = 0.0;
    double gain = 0.0;             ///< log-likelihood-ratio gain of the split
};

/// Tuning of the segmentation.
struct ChangePointConfig {
    std::uint32_t window_size = 10;

    /// Minimum windows per segment (splits closer than this to a
    /// boundary are not considered).
    std::size_t min_segment_windows = 3;

    /// A split is accepted when 2 * (LL(split) - LL(merged)) exceeds
    /// penalty_factor * ln(total windows) — a BIC-style criterion.
    double penalty_factor = 3.0;

    /// Hard cap on recursion (0 = unlimited); a safety valve for
    /// adversarial inputs engineered to fragment endlessly.
    std::size_t max_change_points = 32;
};

/// Binary-segmentation change-point detector on window good counts.
class ChangePointDetector {
public:
    explicit ChangePointDetector(ChangePointConfig config = {});

    /// Segment a feedback sequence (oldest first).
    [[nodiscard]] std::vector<Segment> segment(
        std::span<const repsys::Feedback> feedbacks) const;
    [[nodiscard]] std::vector<Segment> segment(
        std::span<const std::uint8_t> outcomes) const;

    /// Segment precomputed window good counts (oldest first).
    [[nodiscard]] std::vector<Segment> segment_windows(
        std::span<const std::uint32_t> good_counts) const;

    /// Change points between the segments of segment_windows().
    [[nodiscard]] std::vector<ChangePoint> detect(
        std::span<const repsys::Feedback> feedbacks) const;
    [[nodiscard]] std::vector<ChangePoint> detect(
        std::span<const std::uint8_t> outcomes) const;

    [[nodiscard]] const ChangePointConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] std::vector<ChangePoint> change_points_from(
        std::span<const std::uint32_t> good_counts) const;

    ChangePointConfig config_;
};

/// Result of drift-tolerant behavior testing.
struct AdaptiveTestResult {
    bool passed = true;
    bool sufficient = false;
    std::vector<Segment> segments;
    std::vector<BehaviorTestResult> per_segment;  ///< aligned with segments
};

/// §3.2 behavior testing applied per detected regime.
class AdaptiveBehaviorTest {
public:
    AdaptiveBehaviorTest(BehaviorTestConfig test_config = {},
                         ChangePointConfig segmentation = {},
                         std::shared_ptr<stats::Calibrator> calibrator = nullptr);

    [[nodiscard]] AdaptiveTestResult test(
        std::span<const repsys::Feedback> feedbacks) const;
    [[nodiscard]] AdaptiveTestResult test(std::span<const std::uint8_t> outcomes) const;

private:
    [[nodiscard]] AdaptiveTestResult test_windows(const WindowStats& stats) const;

    BehaviorTest single_;
    ChangePointDetector detector_;
};

}  // namespace hpr::core

#endif  // HPR_CORE_CHANGEPOINT_H
