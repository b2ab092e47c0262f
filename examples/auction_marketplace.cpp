// Online-auction marketplace scenario (the setting the paper's
// introduction motivates): a population of sellers with different
// behaviors serves a stream of buyers, who pick sellers either with a
// plain trust function or with the paper's two-phase assessment.
//
//   build/examples/auction_marketplace
//
// Prints, for each defense, what every seller got away with and how many
// bad transactions buyers suffered overall — the end-to-end payoff of
// honest-player screening.

#include <cstdio>
#include <memory>

#include "core/two_phase.h"
#include "repsys/trust.h"
#include "sim/market.h"

using namespace hpr;

namespace {

std::size_t run_market(core::ScreeningMode mode, bool print_report) {
    core::TwoPhaseConfig assess_config;
    assess_config.mode = mode;
    assess_config.test.bonferroni = true;  // keep honest sellers unflagged
    const auto assessor = std::make_shared<const core::TwoPhaseAssessor>(
        assess_config,
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("average")});

    sim::MarketConfig market_config;
    market_config.steps = 1500;
    market_config.trust_threshold = 0.85;
    market_config.bootstrap_per_server = 80;
    // 5% of buyers ignore reputation entirely: keeps flagged sellers'
    // histories evolving, so an honest seller tripped by screening noise
    // can clear itself with continued good service.
    market_config.exploration = 0.05;
    market_config.seed = 7777;

    sim::Marketplace market{market_config, assessor};
    market.add_server(std::make_unique<sim::HonestStrategy>(0.96));
    market.add_server(std::make_unique<sim::HonestStrategy>(0.92));
    market.add_server(std::make_unique<sim::HonestStrategy>(0.88));
    // Flips to pure cheating right after its bootstrap reputation is built.
    market.add_server(std::make_unique<sim::HibernatingStrategy>(80, 0.96));
    // Cheats twice per 20 transactions, forever.
    market.add_server(std::make_unique<sim::PeriodicStrategy>(20, 2));
    market.run();

    if (print_report) {
        std::printf("  %-26s %6s %10s %10s %12s %8s\n", "seller", "txs",
                    "bad-served", "veto:trust", "veto:screen", "trust");
        for (const auto& [id, report] : market.report()) {
            char trust_col[16];
            if (report.suspicious) {
                std::snprintf(trust_col, sizeof trust_col, "FLAGGED");
            } else {
                std::snprintf(trust_col, sizeof trust_col, "%.3f",
                              report.final_trust);
            }
            std::printf("  %-26s %6zu %10zu %10zu %12zu %8s\n",
                        report.strategy.c_str(), report.transactions,
                        report.bad_served, report.rejected_trust,
                        report.rejected_screen, trust_col);
        }
    }
    return market.total_bad_suffered();
}

}  // namespace

int main() {
    std::printf("=== plain trust function (no behavior testing) ===\n");
    const std::size_t bad_plain = run_market(core::ScreeningMode::kNone, true);

    std::printf("\n=== two-phase assessment (Scheme 2 multi-testing) ===\n");
    const std::size_t bad_screened = run_market(core::ScreeningMode::kMulti, true);

    std::printf("\nbad transactions suffered by buyers: %zu (plain)  vs  %zu "
                "(two-phase)\n",
                bad_plain, bad_screened);
    return 0;
}
