#ifndef HPR_TESTS_TRACER_GUARD_H
#define HPR_TESTS_TRACER_GUARD_H

/// \file tracer_guard.h
/// Scoped tracing for tests that read decision records.

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hpr::test {

/// Tracing rides process-global state (the obs kill switch and the
/// default tracer); every test that reads records scopes both: tracer on
/// at sample rate 1, ring drained on entry and exit, everything restored
/// to the quiet default afterwards.
struct TracerGuard {
    TracerGuard() {
        obs::set_enabled(true);
        obs::default_tracer().set_sample_rate(1.0);
        obs::default_tracer().set_enabled(true);
        (void)obs::default_tracer().ring().drain();
    }
    ~TracerGuard() {
        (void)obs::default_tracer().ring().drain();
        obs::default_tracer().set_enabled(false);
        obs::set_enabled(true);
    }
};

}  // namespace hpr::test

#endif  // HPR_TESTS_TRACER_GUARD_H
