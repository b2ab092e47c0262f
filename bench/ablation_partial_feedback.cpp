// Ablation: partial feedback retrieval.
//
// Paper §2: "In practice, our scheme can be equally applied to systems
// where only portions of feedbacks can be retrieved."  The paper never
// quantifies this, so this bench does: detection and false-positive rates
// of multi-testing when the assessor only sees an independent `fraction`
// sample of each server's log (a model of bandwidth-limited retrieval).
//
// Expectation: iid subsampling preserves honest binomial structure (FP
// flat), while attack signatures survive proportionally — rigid patterns
// blur as the sample thins, so detection decays gracefully with the
// retrieval fraction rather than collapsing.

#include "bench_common.h"
#include "core/multi_test.h"
#include "sim/generators.h"

namespace {

using namespace hpr;

/// Detection/FP with a Bernoulli(fraction) retrieval filter per feedback.
double flagged_rate(double fraction, bool attack, std::size_t trials,
                    const std::shared_ptr<stats::Calibrator>& cal) {
    const core::MultiTest tester{{}, cal};
    stats::Rng rng{static_cast<std::uint64_t>(fraction * 1000) + (attack ? 1 : 0)};
    std::size_t flagged = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        const auto full = attack ? sim::periodic_outcomes(1600, 10, 0.1, rng)
                                 : sim::honest_outcomes(1600, 0.9, rng);
        std::vector<std::uint8_t> sampled;
        for (const auto o : full) {
            if (rng.bernoulli(fraction)) sampled.push_back(o);
        }
        if (!tester.test(std::span<const std::uint8_t>{sampled}).passed) ++flagged;
    }
    return static_cast<double>(flagged) / static_cast<double>(trials);
}

}  // namespace

int main() {
    const auto cal = core::make_calibrator({});
    const std::vector<double> fractions{1.0, 0.8, 0.6, 0.4, 0.2};

    hpr::bench::Series detect{"detect(N=10)", {}};
    hpr::bench::Series fp{"honest FP", {}};
    for (const double fraction : fractions) {
        detect.values.push_back(flagged_rate(fraction, true, 150, cal));
        fp.values.push_back(flagged_rate(fraction, false, 150, cal));
    }
    hpr::bench::print_figure(
        "Ablation  partial feedback retrieval (history 1600, N=10 attack)",
        "retrieval_fraction", fractions, {detect, fp});
    std::printf("\n(iid subsampling keeps honest structure intact; rigid attack "
                "signatures blur as the sample thins)\n");
    hpr::bench::print_metrics();
    return 0;
}
