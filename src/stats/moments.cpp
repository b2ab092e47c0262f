#include "stats/moments.h"

#include <cmath>

namespace hpr::stats {

double RunningMoments::stddev() const noexcept { return std::sqrt(variance()); }

double RunningMoments::std_error() const noexcept {
    if (count_ == 0) return 0.0;
    return stddev() / std::sqrt(static_cast<double>(count_));
}

void RunningMoments::merge(const RunningMoments& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
}

}  // namespace hpr::stats
