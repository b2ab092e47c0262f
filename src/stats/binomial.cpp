#include "stats/binomial.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hpr::stats {

double log_gamma(double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

double log_choose(std::uint32_t n, std::uint32_t k) {
    if (k > n) return -std::numeric_limits<double>::infinity();
    return log_gamma(static_cast<double>(n) + 1.0) -
           log_gamma(static_cast<double>(k) + 1.0) -
           log_gamma(static_cast<double>(n - k) + 1.0);
}

Binomial::Binomial(std::uint32_t n, double p) : n_(n), p_(p) {
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("Binomial: p must be in [0, 1]");
    }
    pmf_.resize(n_ + 1, 0.0);
    cdf_.resize(n_ + 1, 0.0);
    if (p == 0.0) {
        pmf_[0] = 1.0;
    } else if (p == 1.0) {
        pmf_[n_] = 1.0;
    } else {
        const double log_p = std::log(p);
        const double log_q = std::log1p(-p);
        for (std::uint32_t k = 0; k <= n_; ++k) {
            pmf_[k] = std::exp(log_choose(n_, k) + static_cast<double>(k) * log_p +
                               static_cast<double>(n_ - k) * log_q);
        }
        // Normalize away the tiny drift from exp/lgamma round-off so that
        // distance computations against empirical pmfs are exact at 0.
        double total = 0.0;
        for (double v : pmf_) total += v;
        if (total > 0.0) {
            for (double& v : pmf_) v /= total;
        }
    }
    double acc = 0.0;
    for (std::uint32_t k = 0; k <= n_; ++k) {
        acc += pmf_[k];
        cdf_[k] = std::min(acc, 1.0);
    }
    cdf_[n_] = 1.0;
    // Upper tail accumulated downward from k = n: each sf_[k] is a sum of
    // same-signed terms at its own magnitude, never a cancellation against
    // 1.0, so P(X >= k) stays relatively accurate deep into the tail.
    sf_.resize(n_ + 1, 0.0);
    double tail = 0.0;
    for (std::uint32_t k = n_ + 1; k-- > 0;) {
        tail += pmf_[k];
        sf_[k] = std::min(tail, 1.0);
    }
    sf_[0] = 1.0;
}

std::uint32_t Binomial::quantile(double q) const {
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument("Binomial::quantile: q must be in [0, 1]");
    }
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), q);
    if (it == cdf_.end()) return n_;
    return static_cast<std::uint32_t>(it - cdf_.begin());
}

std::uint32_t Binomial::sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return n_;
    return static_cast<std::uint32_t>(it - cdf_.begin());
}

}  // namespace hpr::stats
