// Unit tests for the incomplete-beta test oracle (incomplete_beta.h).

#include "incomplete_beta.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hpr::stats::oracle {
namespace {

TEST(LogBeta, KnownValues) {
    // B(1, 1) = 1, B(2, 3) = 1/12, B(0.5, 0.5) = pi.
    EXPECT_NEAR(std::exp(log_beta(1.0, 1.0)), 1.0, 1e-12);
    EXPECT_NEAR(std::exp(log_beta(2.0, 3.0)), 1.0 / 12.0, 1e-12);
    EXPECT_NEAR(std::exp(log_beta(0.5, 0.5)), M_PI, 1e-9);
}

TEST(RegIncompleteBeta, Boundaries) {
    EXPECT_EQ(reg_incomplete_beta(2.0, 3.0, 0.0), 0.0);
    EXPECT_EQ(reg_incomplete_beta(2.0, 3.0, 1.0), 1.0);
    EXPECT_EQ(reg_incomplete_beta(2.0, 3.0, -0.5), 0.0);
    EXPECT_EQ(reg_incomplete_beta(2.0, 3.0, 1.5), 1.0);
}

TEST(RegIncompleteBeta, UniformSpecialCase) {
    // I_x(1, 1) = x.
    for (double x : {0.1, 0.25, 0.5, 0.75, 0.9}) {
        EXPECT_NEAR(reg_incomplete_beta(1.0, 1.0, x), x, 1e-12);
    }
}

TEST(RegIncompleteBeta, SymmetryRelation) {
    // I_x(a, b) = 1 - I_{1-x}(b, a).
    for (double x : {0.05, 0.3, 0.5, 0.8, 0.95}) {
        EXPECT_NEAR(reg_incomplete_beta(2.5, 4.0, x),
                    1.0 - reg_incomplete_beta(4.0, 2.5, 1.0 - x), 1e-10);
    }
}

TEST(RegIncompleteBeta, BinomialIdentity) {
    // P(Bin(n, p) >= k) = I_p(k, n - k + 1).
    const double p = 0.6;
    const int n = 10;
    const int k = 7;
    double tail = 0.0;
    for (int j = k; j <= n; ++j) {
        tail += std::exp(std::lgamma(n + 1.0) - std::lgamma(j + 1.0) -
                         std::lgamma(n - j + 1.0)) *
                std::pow(p, j) * std::pow(1 - p, n - j);
    }
    EXPECT_NEAR(reg_incomplete_beta(k, n - k + 1.0, p), tail, 1e-10);
}

}  // namespace
}  // namespace hpr::stats::oracle
