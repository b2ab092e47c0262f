#ifndef HPR_TESTS_STATS_INCOMPLETE_BETA_H
#define HPR_TESTS_STATS_INCOMPLETE_BETA_H

/// \file incomplete_beta.h
/// The regularized incomplete beta function, kept in the test tree as an
/// independent oracle for `stats::Binomial::survival` through the identity
/// P(Bin(n, p) >= k) = I_p(k, n - k + 1).  No library code calls it.

#include <cmath>

#include "stats/binomial.h"

namespace hpr::stats::oracle {

/// Natural log of the Beta function B(a, b).
[[nodiscard]] inline double log_beta(double a, double b) {
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b);
}

/// Continued-fraction evaluation for the regularized incomplete beta
/// function (Numerical-Recipes-style modified Lentz algorithm).
[[nodiscard]] inline double beta_continued_fraction(double a, double b, double x) {
    constexpr int kMaxIterations = 300;
    constexpr double kEpsilon = 1e-15;
    constexpr double kTiny = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIterations; ++m) {
        const auto dm = static_cast<double>(m);
        const double m2 = 2.0 * dm;
        double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < kEpsilon) break;
    }
    return h;
}

/// Regularized incomplete beta function I_x(a, b) via the continued
/// fraction of Lentz's method.  Accurate to ~1e-12 over (0,1).
[[nodiscard]] inline double reg_incomplete_beta(double a, double b, double x) {
    if (x <= 0.0) return 0.0;
    if (x >= 1.0) return 1.0;
    const double log_front = a * std::log(x) + b * std::log1p(-x) - log_beta(a, b);
    const double front = std::exp(log_front);
    // Use the symmetry relation to keep the continued fraction convergent.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * beta_continued_fraction(a, b, x) / a;
    }
    return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace hpr::stats::oracle

#endif  // HPR_TESTS_STATS_INCOMPLETE_BETA_H
