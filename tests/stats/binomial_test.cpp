// Unit and property tests for the binomial distribution (stats/binomial.h).

#include "stats/binomial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

namespace hpr::stats {
namespace {

/// log P(X = k) for 0 < p < 1, computed in log space so it stays accurate
/// at any magnitude: the reference the deep-tail survival test sums.
double log_pmf(const Binomial& b, std::uint32_t k) {
    return log_choose(b.n(), k) + static_cast<double>(k) * std::log(b.p()) +
           static_cast<double>(b.n() - k) * std::log1p(-b.p());
}

TEST(LogChoose, KnownValues) {
    EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
    EXPECT_NEAR(std::exp(log_choose(10, 0)), 1.0, 1e-9);
    EXPECT_NEAR(std::exp(log_choose(10, 10)), 1.0, 1e-9);
    EXPECT_NEAR(std::exp(log_choose(52, 5)), 2598960.0, 1e-3);
}

TEST(LogChoose, OutOfRangeIsMinusInfinity) {
    EXPECT_TRUE(std::isinf(log_choose(3, 4)));
    EXPECT_LT(log_choose(3, 4), 0.0);
}

TEST(Binomial, RejectsInvalidP) {
    EXPECT_THROW(Binomial(10, -0.1), std::invalid_argument);
    EXPECT_THROW(Binomial(10, 1.1), std::invalid_argument);
    EXPECT_THROW(Binomial(10, std::nan("")), std::invalid_argument);
}

TEST(Binomial, KnownPmfValues) {
    const Binomial fair_coin{2, 0.5};
    EXPECT_NEAR(fair_coin.pmf(0), 0.25, 1e-12);
    EXPECT_NEAR(fair_coin.pmf(1), 0.5, 1e-12);
    EXPECT_NEAR(fair_coin.pmf(2), 0.25, 1e-12);

    const Binomial b{10, 0.9};
    EXPECT_NEAR(b.pmf(10), std::pow(0.9, 10), 1e-10);
    EXPECT_NEAR(b.pmf(9), 10 * std::pow(0.9, 9) * 0.1, 1e-10);
}

TEST(Binomial, PmfBeyondSupportIsZero) {
    const Binomial b{5, 0.3};
    EXPECT_EQ(b.pmf(6), 0.0);
    EXPECT_EQ(b.pmf(1000), 0.0);
}

TEST(Binomial, DegenerateP0) {
    const Binomial b{8, 0.0};
    EXPECT_EQ(b.pmf(0), 1.0);
    for (std::uint32_t k = 1; k <= 8; ++k) EXPECT_EQ(b.pmf(k), 0.0);
    EXPECT_EQ(b.cdf(0), 1.0);
    EXPECT_EQ(b.mean(), 0.0);
}

TEST(Binomial, DegenerateP1) {
    const Binomial b{8, 1.0};
    EXPECT_EQ(b.pmf(8), 1.0);
    for (std::uint32_t k = 0; k < 8; ++k) EXPECT_EQ(b.pmf(k), 0.0);
    EXPECT_EQ(b.mean(), 8.0);
    EXPECT_EQ(b.variance(), 0.0);
}

TEST(Binomial, LogPmfMatchesPmf) {
    const Binomial b{20, 0.37};
    for (std::uint32_t k = 0; k <= 20; ++k) {
        EXPECT_NEAR(std::exp(log_pmf(b, k)), b.pmf(k), 1e-9) << "k=" << k;
    }
}

TEST(Binomial, QuantileIsInverseOfCdf) {
    const Binomial b{30, 0.6};
    for (std::uint32_t k = 0; k <= 30; ++k) {
        const double q = b.cdf(k);
        EXPECT_LE(b.quantile(q), k);
        EXPECT_GE(b.cdf(b.quantile(q)), q - 1e-12);
    }
    EXPECT_EQ(b.quantile(0.0), 0u);
    EXPECT_EQ(b.quantile(1.0), 30u);
}

TEST(Binomial, QuantileRejectsOutOfRange) {
    const Binomial b{4, 0.4};
    EXPECT_THROW((void)b.quantile(-0.01), std::invalid_argument);
    EXPECT_THROW((void)b.quantile(1.01), std::invalid_argument);
}

TEST(Binomial, SurvivalComplementsCdf) {
    const Binomial b{12, 0.45};
    EXPECT_EQ(b.survival(0), 1.0);
    for (std::uint32_t k = 1; k <= 12; ++k) {
        EXPECT_NEAR(b.survival(k), 1.0 - b.cdf(k - 1), 1e-12);
    }
}

TEST(Binomial, PmfTableHasFullSupport) {
    const Binomial b{10, 0.9};
    EXPECT_EQ(b.pmf_table().size(), 11u);
}

TEST(Binomial, SurvivalDeepTailsMatchLogPmfSummation) {
    // Regression for catastrophic cancellation: the 1 - cdf(k-1) form is
    // pure rounding noise once the upper tail drops below ~1e-16, because
    // the cdf has already rounded to 1.  The dedicated upper-tail table
    // must instead agree with a summation of exp(log_pmf) terms — each
    // computed in log space, so accurate at any magnitude — to relative
    // precision, for every k of an n = 100 distribution.
    for (const double p : {0.5, 0.9, 0.05}) {
        const Binomial b{100, p};
        for (std::uint32_t k = 0; k <= 100; ++k) {
            double reference = 0.0;
            for (std::uint32_t j = 100; j + 1 > k; --j) {
                reference += std::exp(log_pmf(b, j));  // smallest terms first
            }
            ASSERT_NEAR(b.survival(k), reference, 1e-12 * reference)
                << "n=100 p=" << p << " k=" << k;
        }
    }
}

TEST(Binomial, SurvivalResolvesTailsTheCdfComplementCannot) {
    // The motivating case: P(X >= 95 | n=100, p=0.5) ~ 2e-18.  The
    // complement form returns exactly 0 (the cdf is 1 to machine
    // precision); the tail table keeps the mass to its own scale.
    const Binomial b{100, 0.5};
    EXPECT_EQ(1.0 - b.cdf(94), 0.0);
    EXPECT_GT(b.survival(95), 0.0);
    // Spot value cross-checked in exact arithmetic:
    // sum_{k=95}^{100} C(100,k) / 2^100 = 79375496 / 2^100 = 6.2616...e-23.
    EXPECT_NEAR(b.survival(95), 6.2616e-23, 0.001e-23);
}

TEST(Binomial, SurvivalIsMonotoneNonIncreasing) {
    const Binomial b{100, 0.7};
    for (std::uint32_t k = 1; k <= 100; ++k) {
        ASSERT_LE(b.survival(k), b.survival(k - 1)) << "k=" << k;
    }
    EXPECT_EQ(b.survival(0), 1.0);
    EXPECT_EQ(b.survival(101), 0.0);
}

class BinomialProperty : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(BinomialProperty, PmfSumsToOne) {
    const auto [n, p] = GetParam();
    const Binomial b{n, p};
    double total = 0.0;
    for (std::uint32_t k = 0; k <= n; ++k) total += b.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(BinomialProperty, CdfIsMonotone) {
    const auto [n, p] = GetParam();
    const Binomial b{n, p};
    double prev = 0.0;
    for (std::uint32_t k = 0; k <= n; ++k) {
        EXPECT_GE(b.cdf(k) + 1e-15, prev);
        prev = b.cdf(k);
    }
    EXPECT_NEAR(b.cdf(n), 1.0, 1e-12);
}

TEST_P(BinomialProperty, MomentsMatchFormula) {
    const auto [n, p] = GetParam();
    const Binomial b{n, p};
    double mean = 0.0;
    double second = 0.0;
    for (std::uint32_t k = 0; k <= n; ++k) {
        mean += k * b.pmf(k);
        second += static_cast<double>(k) * k * b.pmf(k);
    }
    EXPECT_NEAR(mean, b.mean(), 1e-7);
    EXPECT_NEAR(second - mean * mean, b.variance(), 1e-6);
}

TEST_P(BinomialProperty, SampleMeanConverges) {
    const auto [n, p] = GetParam();
    const Binomial b{n, p};
    Rng rng{99};
    constexpr std::size_t kSamples = 20000;
    double sum = 0.0;
    for (std::size_t i = 0; i < kSamples; ++i) {
        const std::uint32_t x = b.sample(rng);
        ASSERT_LE(x, n);
        sum += x;
    }
    const double tolerance = 4.0 * std::sqrt(b.variance() / kSamples) + 1e-9;
    EXPECT_NEAR(sum / kSamples, b.mean(), tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialProperty,
    ::testing::Values(std::make_tuple(1u, 0.5), std::make_tuple(10u, 0.9),
                      std::make_tuple(10u, 0.95), std::make_tuple(20u, 0.1),
                      std::make_tuple(50u, 0.62), std::make_tuple(100u, 0.99),
                      std::make_tuple(10u, 0.0), std::make_tuple(10u, 1.0)));

TEST(Binomial, SamplingChiSquareAgainstPmf) {
    // Goodness-of-fit of the sampler against the pmf for B(10, 0.9), the
    // workhorse distribution of the paper's experiments.
    const Binomial b{10, 0.9};
    Rng rng{123};
    constexpr std::size_t kSamples = 50000;
    std::vector<std::size_t> counts(11, 0);
    for (std::size_t i = 0; i < kSamples; ++i) ++counts[b.sample(rng)];
    double chi_sq = 0.0;
    int dof = 0;
    for (std::uint32_t k = 0; k <= 10; ++k) {
        const double expected = kSamples * b.pmf(k);
        if (expected < 5.0) continue;  // merge tiny cells out of the test
        ++dof;
        const double diff = static_cast<double>(counts[k]) - expected;
        chi_sq += diff * diff / expected;
    }
    // 99.9th percentile of chi-square with <= 10 dof is < 30.
    EXPECT_LT(chi_sq, 30.0) << "dof=" << dof;
}

}  // namespace
}  // namespace hpr::stats
