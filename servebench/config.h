#ifndef HPR_SERVEBENCH_CONFIG_H
#define HPR_SERVEBENCH_CONFIG_H

// The serving configuration of examples/reputation_server --listen,
// shared by the benchmark daemon and the load generator's direct-call
// twin so that both compute verdicts from identical settings.

#include <memory>

#include "core/behavior_test.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"

namespace servebench {

inline constexpr std::size_t kStoreShards = 16;

/// Calibrator warm-started over every key a 1000-transaction history
/// with p̂ in [0.55, 1] can hit, as the example does before serving.
inline std::shared_ptr<hpr::stats::Calibrator> make_warm_calibrator() {
    auto calibrator = hpr::core::make_calibrator({});
    hpr::core::warm_calibration(*calibrator, 10, 1000 / 10, 0.55, 1.0);
    return calibrator;
}

/// Multi-mode two-phase screening with Bonferroni correction, `beta`
/// trust, screener horizon 64.
inline hpr::serve::BatchAssessor make_assessor(
    std::shared_ptr<hpr::stats::Calibrator> calibrator) {
    hpr::serve::BatchAssessorConfig config;
    config.assessment.mode = hpr::core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    config.screener_horizon = 64;
    return hpr::serve::BatchAssessor{
        config,
        std::shared_ptr<const hpr::repsys::TrustFunction>{
            hpr::repsys::make_trust_function("beta")},
        std::move(calibrator)};
}

}  // namespace servebench

#endif  // HPR_SERVEBENCH_CONFIG_H
