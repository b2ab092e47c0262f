#ifndef HPR_CORE_RUNS_TEST_H
#define HPR_CORE_RUNS_TEST_H

/// \file runs_test.h
/// Wald-Wolfowitz runs test as a supplementary behavior screen.
///
/// The paper (§3.1) notes that honest-player screening "shares similarity
/// to pseudo random sequence testing" (NIST SP 800-22, its reference
/// [12]) but that those suites assume the success probability is known.
/// The runs test sidesteps that: conditioned on the observed counts of
/// good/bad outcomes, the number of runs R of an exchangeable (honest)
/// sequence has known mean and variance
///
///     mu = 1 + 2*n1*n0/n,   sigma^2 = 2*n1*n0*(2*n1*n0 - n) / (n^2 (n-1)),
///
/// so z = (R - mu)/sigma is asymptotically standard normal with *no*
/// Monte-Carlo calibration at all.  Too few runs exposes clustering
/// (hibernation bursts, colluder blocks after re-ordering); too many runs
/// exposes rigid alternation (tight periodic attacks).  It complements
/// the distribution test: the two condition on different statistics, and
/// the tests catch partially disjoint manipulation patterns
/// (bench/ablation_runs_test compares them head-to-head).

#include <cstdint>
#include <span>

#include "repsys/types.h"

namespace hpr::core {

/// Outcome of one runs test.
struct RunsTestResult {
    bool passed = true;
    bool sufficient = false;  ///< both outcome kinds frequent enough

    std::size_t runs = 0;         ///< observed maximal-run count R
    double expected_runs = 0.0;   ///< mu under exchangeability
    /// Standardized statistic: negative with fewer runs than expected
    /// (clustered), positive with more (over-alternating).
    double z = 0.0;
    double z_threshold = 0.0;     ///< two-sided acceptance bound
    std::size_t good = 0;
    std::size_t bad = 0;
};

/// Configuration of the runs test.
struct RunsTestConfig {
    double confidence = 0.95;

    /// Minimum count of *each* outcome kind for the normal approximation
    /// to hold (classical guidance: >= 10).
    std::size_t min_each = 10;
};

/// Stateless Wald-Wolfowitz tester.
class RunsTest {
public:
    explicit RunsTest(RunsTestConfig config = {});

    [[nodiscard]] RunsTestResult test(std::span<const std::uint8_t> outcomes) const;
    [[nodiscard]] RunsTestResult test(std::span<const repsys::Feedback> feedbacks) const;

    [[nodiscard]] const RunsTestConfig& config() const noexcept { return config_; }

private:
    RunsTestConfig config_;
    double z_threshold_;
};

}  // namespace hpr::core

#endif  // HPR_CORE_RUNS_TEST_H
