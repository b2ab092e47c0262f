#ifndef HPR_STATS_MOMENTS_H
#define HPR_STATS_MOMENTS_H

/// \file moments.h
/// Streaming summary statistics (Welford's algorithm) and normal-theory
/// confidence intervals, used by the experiment drivers to aggregate
/// per-trial results into the series the paper's figures plot.

#include <cstddef>
#include <cstdint>

namespace hpr::stats {

/// Numerically stable running mean/variance accumulator.
class RunningMoments {
public:
    void add(double x) noexcept {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        if (count_ == 1) {
            min_ = x;
            max_ = x;
        } else {
            if (x < min_) min_ = x;
            if (x > max_) max_ = x;
        }
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }

    /// Unbiased sample variance; 0 when fewer than two samples.
    [[nodiscard]] double variance() const noexcept {
        return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
    }

    [[nodiscard]] double stddev() const noexcept;

    /// Standard error of the mean; 0 when empty.
    [[nodiscard]] double std_error() const noexcept;

    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

    void merge(const RunningMoments& other) noexcept;

private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace hpr::stats

#endif  // HPR_STATS_MOMENTS_H
