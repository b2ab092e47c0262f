#ifndef HPR_STATS_BINOMIAL_H
#define HPR_STATS_BINOMIAL_H

/// \file binomial.h
/// The binomial distribution B(n, p).
///
/// This is the statistical heart of the honest-player model (paper §3.1):
/// the number of good transactions among n independent transactions of an
/// honest server with trust value p follows B(n, p).  Behavior testing
/// compares empirical window statistics against this distribution.

#include <cstdint>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace hpr::stats {

/// Natural log of Γ(x), thread-safe.  std::lgamma writes the
/// process-global `signgam` on glibc — a data race when concurrent
/// assessment threads evaluate tail bounds — so every lgamma use in the
/// library goes through this lgamma_r-backed wrapper instead.
[[nodiscard]] double log_gamma(double x);

/// Natural log of the binomial coefficient C(n, k).
[[nodiscard]] double log_choose(std::uint32_t n, std::uint32_t k);

/// An immutable binomial distribution B(n, p) with precomputed pmf table.
///
/// The support is the small integer range {0..n} (n is a transaction
/// window size in this library, typically 10..100), so an explicit pmf
/// table is both the fastest and the clearest representation.
class Binomial {
public:
    /// \throws std::invalid_argument if p is outside [0, 1].
    Binomial(std::uint32_t n, double p);

    [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
    [[nodiscard]] double p() const noexcept { return p_; }

    /// P(X = k); 0 for k > n.
    [[nodiscard]] double pmf(std::uint32_t k) const noexcept {
        return k <= n_ ? pmf_[k] : 0.0;
    }

    /// P(X <= k); 1 for k >= n.
    [[nodiscard]] double cdf(std::uint32_t k) const noexcept {
        return k < n_ ? cdf_[k] : 1.0;
    }

    /// P(X >= k), read from a dedicated upper-tail table accumulated from
    /// the top of the pmf.  The naive 1 - cdf(k-1) form loses all relative
    /// precision once the tail drops below ~1e-16 (catastrophic
    /// cancellation against a cdf that has rounded to 1); summing the pmf
    /// from the top keeps deep tails accurate to their own scale.
    [[nodiscard]] double survival(std::uint32_t k) const noexcept {
        return k <= n_ ? sf_[k] : 0.0;
    }

    /// Smallest k with P(X <= k) >= q, for q in [0, 1].
    [[nodiscard]] std::uint32_t quantile(double q) const;

    [[nodiscard]] double mean() const noexcept { return static_cast<double>(n_) * p_; }
    [[nodiscard]] double variance() const noexcept {
        return static_cast<double>(n_) * p_ * (1.0 - p_);
    }

    /// Full pmf table over {0..n} (size n+1).
    [[nodiscard]] const std::vector<double>& pmf_table() const noexcept { return pmf_; }

    /// Borrowed contiguous view of the pmf table.  The distance kernels
    /// (stats/distance.h) consume it directly, so shared cached models
    /// (stats/reference_cache.h) are read without any copy.
    [[nodiscard]] std::span<const double> pmf_span() const noexcept {
        return {pmf_.data(), pmf_.size()};
    }

    /// Draw one variate (inversion from the precomputed cdf; O(log n)).
    [[nodiscard]] std::uint32_t sample(Rng& rng) const;

private:
    std::uint32_t n_;
    double p_;
    std::vector<double> pmf_;  ///< pmf_[k] = P(X = k), k in {0..n}
    std::vector<double> cdf_;  ///< cdf_[k] = P(X <= k), k in {0..n}
    std::vector<double> sf_;   ///< sf_[k] = P(X >= k), summed from the top
};

}  // namespace hpr::stats

#endif  // HPR_STATS_BINOMIAL_H
