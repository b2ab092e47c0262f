// Quickstart: screen a server's transaction history with the two-phase
// assessor (paper Fig. 1/Fig. 2) and read the verdict.
//
//   build/examples/quickstart
//
// Walks through the three cases every deployment hits:
//   1. an honest server           -> screened, trust value returned;
//   2. a hibernating attacker     -> flagged suspicious, no trust value;
//   3. a newcomer (short history) -> unscreenable, trust value returned
//      with an explicit "insufficient history" marker.

#include <cstdio>

#include "core/two_phase.h"
#include "repsys/trust.h"
#include "sim/generators.h"
#include "stats/rng.h"

using namespace hpr;

namespace {

void show(const char* label, const core::Assessment& assessment) {
    std::printf("%-24s verdict=%-22s", label, core::to_string(assessment.verdict));
    if (assessment.trust) {
        std::printf(" trust=%.3f", *assessment.trust);
    } else {
        std::printf(" trust=(withheld)");
    }
    if (assessment.screening.sufficient) {
        std::printf("  [screened %zu suffix(es), min margin %+.3f]",
                     assessment.screening.stages_run, assessment.screening.min_margin);
    }
    std::printf("\n");
}

}  // namespace

int main() {
    // One assessor, reusable for any number of servers.  Phase 1 is the
    // paper's multi-testing (Scheme 2) over windows of 10 transactions at
    // 95% confidence; phase 2 is the plain average trust function.
    core::TwoPhaseConfig config;
    config.mode = core::ScreeningMode::kMulti;
    const core::TwoPhaseAssessor assessor{
        config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("average")}};

    stats::Rng rng{2024};

    // 1. Honest player: outcomes are iid Bernoulli(0.93) (paper §3.1).
    const auto honest = sim::honest_history(500, 0.93, rng);
    show("honest server:", assessor.assess(honest));

    // 2. Hibernating attacker: 500 honest-looking transactions, then a
    //    burst of 25 bad ones (paper §3).  The plain average trust value
    //    would still be 0.86 — screening refuses to compute it.
    const auto attacker = sim::hibernating_history(500, 25, 0.95, rng);
    show("hibernating attacker:", assessor.assess(attacker));

    // 3. Newcomer with 15 transactions: too short to screen (paper §7
    //    discusses why newcomers are inherently undecidable).
    const auto newcomer = sim::honest_history(15, 0.9, rng);
    show("newcomer:", assessor.assess(newcomer));

    // A client with trust threshold 0.9 would transact only with servers
    // that pass BOTH phases:
    std::printf("\nwould transact (threshold 0.9)?  honest=%s  attacker=%s\n",
                assessor.accept(honest, 0.9) ? "yes" : "no",
                assessor.accept(attacker, 0.9) ? "yes" : "no");
    return 0;
}
