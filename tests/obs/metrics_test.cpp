// Registry, counter/gauge primitives, the global kill switch, the RAII
// timing helpers and both exporters — plus one end-to-end check that the
// library's instrumentation sites actually record into default_registry().

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/timer.h"
#include "repsys/store.h"
#include "repsys/trust.h"
#include "sim/generators.h"
#include "stats/rng.h"

namespace hpr::obs {
namespace {

/// The kill switch is process-global state; every test that flips it must
/// leave it on for the rest of the suite.
struct EnabledGuard {
    ~EnabledGuard() { set_enabled(true); }
};

TEST(Counter, IncrementsAndResets) {
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.increment();
    counter.increment(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddSubAndRunningMax) {
    Gauge gauge;
    gauge.set(7);
    EXPECT_EQ(gauge.value(), 7);
    gauge.add(3);
    gauge.sub(5);
    EXPECT_EQ(gauge.value(), 5);
    gauge.set(-2);
    EXPECT_EQ(gauge.value(), -2);

    gauge.reset();
    gauge.set_max(10);
    gauge.set_max(4);  // lower: must not move the high-water mark
    EXPECT_EQ(gauge.value(), 10);
    gauge.set_max(15);
    EXPECT_EQ(gauge.value(), 15);
}

TEST(KillSwitch, DisabledRecordingIsANoOp) {
    const EnabledGuard guard;
    Counter counter;
    Gauge gauge;
    Histogram hist{{1.0}};

    set_enabled(false);
    EXPECT_FALSE(enabled());
    counter.increment();
    gauge.set(5);
    gauge.add(3);
    gauge.set_max(9);
    hist.observe(0.5);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(hist.count(), 0u);

    set_enabled(true);
    EXPECT_TRUE(enabled());
    counter.increment();
    hist.observe(0.5);
    EXPECT_EQ(counter.value(), 1u);
    EXPECT_EQ(hist.count(), 1u);
}

TEST(KillSwitch, ResetWorksWhileDisabled) {
    const EnabledGuard guard;
    Gauge gauge;
    gauge.set(5);
    set_enabled(false);
    gauge.reset();  // reset epochs must apply even when recording is off
    EXPECT_EQ(gauge.value(), 0);
}

TEST(Registry, SameNameReturnsSameMetric) {
    Registry registry;
    Counter& a = registry.counter("requests_total", "first registration");
    Counter& b = registry.counter("requests_total", "ignored on re-registration");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_TRUE(registry.contains("requests_total"));
    EXPECT_FALSE(registry.contains("absent"));
}

TEST(Registry, KindMismatchThrows) {
    Registry registry;
    (void)registry.counter("metric_a");
    EXPECT_THROW((void)registry.gauge("metric_a"), std::invalid_argument);
    EXPECT_THROW((void)registry.histogram("metric_a"), std::invalid_argument);
    (void)registry.gauge("metric_b");
    EXPECT_THROW((void)registry.counter("metric_b"), std::invalid_argument);
}

TEST(Registry, RejectsInvalidNames) {
    Registry registry;
    EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
    EXPECT_THROW((void)registry.counter("9starts_with_digit"), std::invalid_argument);
    EXPECT_THROW((void)registry.counter("has-dash"), std::invalid_argument);
    EXPECT_THROW((void)registry.counter("has space"), std::invalid_argument);
    (void)registry.counter("_leading_underscore_ok");
    (void)registry.counter("mixedCase_09_ok");
}

TEST(Registry, HistogramBoundsAreFixedAtFirstRegistration) {
    Registry registry;
    Histogram& custom = registry.histogram("lat_seconds", "", {0.1, 0.2});
    EXPECT_EQ(custom.bounds(), (std::vector<double>{0.1, 0.2}));
    Histogram& again = registry.histogram("lat_seconds", "", {9.0});
    EXPECT_EQ(&custom, &again);
    EXPECT_EQ(again.bounds(), (std::vector<double>{0.1, 0.2}));

    Histogram& defaulted = registry.histogram("lat2_seconds");
    EXPECT_EQ(defaulted.bounds(), default_latency_buckets());
}

TEST(Registry, VisitsInNameOrderWithStableAddresses) {
    Registry registry;
    Counter& c = registry.counter("b_total", "counts");
    Gauge& g = registry.gauge("a_level", "levels");
    Histogram& h = registry.histogram("c_seconds", "spans");

    std::vector<std::string> names;
    registry.visit([&](const Registry::Entry& entry) {
        names.push_back(entry.name);
        switch (entry.kind) {
            case MetricKind::kCounter: EXPECT_EQ(entry.counter, &c); break;
            case MetricKind::kGauge: EXPECT_EQ(entry.gauge, &g); break;
            case MetricKind::kHistogram: EXPECT_EQ(entry.histogram, &h); break;
        }
    });
    EXPECT_EQ(names, (std::vector<std::string>{"a_level", "b_total", "c_seconds"}));
}

TEST(Registry, ResetValuesZerosEverythingButKeepsRegistrations) {
    Registry registry;
    Counter& c = registry.counter("c_total");
    Gauge& g = registry.gauge("g_level");
    Histogram& h = registry.histogram("h_seconds", "", {1.0});
    c.increment(3);
    g.set(9);
    h.observe(0.5);

    registry.reset_values();
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ScopedTimer, RecordsExactlyOneSpan) {
    Histogram hist{{10.0}};
    {
        ScopedTimer span{hist};
    }
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_GE(hist.sum(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotentAndCancelDropsTheSpan) {
    Histogram hist{{10.0}};
    {
        ScopedTimer span{hist};
        span.stop();
        span.stop();  // second stop and the destructor must not re-record
    }
    EXPECT_EQ(hist.count(), 1u);
    {
        ScopedTimer span{hist};
        span.cancel();
    }
    EXPECT_EQ(hist.count(), 1u);
}

TEST(ScopedTimer, DisabledAtConstructionNeverRecords) {
    const EnabledGuard guard;
    Histogram hist{{10.0}};
    set_enabled(false);
    {
        ScopedTimer span{hist};
        // Re-enabling mid-span must not resurrect it: the decision is
        // taken at construction, so the span stays free of clock reads.
        set_enabled(true);
    }
    EXPECT_EQ(hist.count(), 0u);
}

TEST(Stopwatch, MeasuresNonNegativeMonotoneTime) {
    Stopwatch watch;
    const double first = watch.seconds();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(watch.seconds(), first);
    watch.restart();
    EXPECT_GE(watch.seconds(), 0.0);
}

TEST(Exporters, PrometheusTextCarriesTypesValuesAndCumulativeBuckets) {
    Registry registry;
    registry.counter("x_requests_total", "served requests").increment(3);
    registry.gauge("x_queue_depth").set(-2);
    Histogram& h = registry.histogram("x_lat_seconds", "span", {1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(9.0);

    const std::string text = to_prometheus(registry);
    EXPECT_NE(text.find("# HELP x_requests_total served requests\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE x_requests_total counter\n"), std::string::npos);
    EXPECT_NE(text.find("x_requests_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE x_queue_depth gauge\n"), std::string::npos);
    EXPECT_NE(text.find("x_queue_depth -2\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE x_lat_seconds histogram\n"), std::string::npos);
    EXPECT_NE(text.find("x_lat_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("x_lat_seconds_bucket{le=\"2\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("x_lat_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("x_lat_seconds_sum 11\n"), std::string::npos);
    EXPECT_NE(text.find("x_lat_seconds_count 3\n"), std::string::npos);
    // A gauge with no help string must not emit a dangling HELP line.
    EXPECT_EQ(text.find("# HELP x_queue_depth"), std::string::npos);
}

TEST(Registry, ResetForTestsClearsProcessGlobalCarryOver) {
    Registry registry;
    Counter& c = registry.counter("rft_total");
    Gauge& g = registry.gauge("rft_level");
    Histogram& h = registry.histogram("rft_seconds", "", {1.0});
    c.increment(11);
    g.set(-3);
    h.observe(0.25);

    registry.reset_for_tests();
    EXPECT_EQ(registry.size(), 3u) << "registrations must survive the reset";
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    c.increment();  // the same metric objects keep recording afterwards
    EXPECT_EQ(c.value(), 1u);
}

TEST(Exporters, EscapePrometheusNeutralizesNewlinesAndBackslashes) {
    EXPECT_EQ(escape_prometheus("plain_name"), "plain_name");
    EXPECT_EQ(escape_prometheus("evil\nname"), "evil\\nname");
    EXPECT_EQ(escape_prometheus("back\\slash"), "back\\\\slash");
    EXPECT_EQ(escape_prometheus("a\nb\\c\n"), "a\\nb\\\\c\\n");
    EXPECT_EQ(escape_prometheus(""), "");
}

TEST(Exporters, EscapeJsonHandlesQuotesAndControlCharacters) {
    EXPECT_EQ(escape_json("plain"), "plain");
    EXPECT_EQ(escape_json("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escape_json("tab\there"), "tab\\there");
    EXPECT_EQ(escape_json(std::string{"nul\x01" "byte"}), "nul\\u0001byte");
    EXPECT_EQ(escape_json("line\nbreak\r"), "line\\nbreak\\r");
}

TEST(Exporters, PrometheusEscapesHelpTextDefensively) {
    // Registry rejects invalid metric *names*, so in practice the attack
    // surface is the free-form help string: an embedded newline would
    // otherwise inject arbitrary exposition lines into a scrape.
    Registry registry;
    registry
        .counter("esc_total",
                 "line one\ninjected_metric 999\nwith back\\slash")
        .increment(5);

    const std::string text = to_prometheus(registry);
    EXPECT_NE(text.find("# HELP esc_total line one\\ninjected_metric 999\\n"
                        "with back\\\\slash\n"),
              std::string::npos);
    // The injected sample line must NOT appear at line start anywhere.
    EXPECT_EQ(text.find("\ninjected_metric 999"), std::string::npos);
    EXPECT_NE(text.find("esc_total 5\n"), std::string::npos);
}

TEST(Exporters, JsonCarriesSectionsAndPrecomputedPercentiles) {
    Registry registry;
    registry.counter("j_total").increment(7);
    registry.gauge("j_level").set(4);
    Histogram& h = registry.histogram("j_seconds", "", {1.0, 2.0});
    for (int i = 0; i < 100; ++i) h.observe(0.5);

    const std::string json = to_json(registry);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"j_total\":7"), std::string::npos);
    EXPECT_NE(json.find("\"j_level\":4"), std::string::npos);
    EXPECT_NE(json.find("\"count\":100"), std::string::npos);
    // 100 identical 0.5s observations: p50 interpolates inside (0, 1].
    EXPECT_NE(json.find("\"p50\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(DefaultRegistry, LibraryInstrumentationRecordsIntoIt) {
    // End-to-end wiring: driving the store and the assessor must move the
    // process-wide metrics.  Deltas, not absolute values — other tests in
    // this binary (and the components themselves) share the registry.
    Registry& registry = default_registry();

    stats::Rng rng{11};
    const auto history = sim::honest_history(60, 0.9, rng);

    Counter& ingest = registry.counter("hpr_store_ingest_total");
    const std::uint64_t ingest_before = ingest.value();
    repsys::FeedbackStore store;
    for (const auto& feedback : history.feedbacks()) store.submit(feedback);
    EXPECT_EQ(ingest.value(), ingest_before + history.size());

    Counter& assessments = registry.counter("hpr_assessments_total");
    Histogram& phase1 = registry.histogram("hpr_assess_phase1_seconds");
    const std::uint64_t assessments_before = assessments.value();
    const std::uint64_t phase1_before = phase1.count();
    const core::TwoPhaseAssessor assessor{
        core::TwoPhaseConfig{},
        std::shared_ptr<const repsys::TrustFunction>{
            repsys::make_trust_function("beta")}};
    const auto assessment = assessor.assess(history.view());
    EXPECT_EQ(assessments.value(), assessments_before + 1);
    EXPECT_EQ(phase1.count(), phase1_before + 1);

    // The verdict counter that fired must be the one matching the verdict.
    const char* verdict_metric = nullptr;
    switch (assessment.verdict) {
        case core::Verdict::kSuspicious:
            verdict_metric = "hpr_assessments_suspicious_total";
            break;
        case core::Verdict::kAssessed:
            verdict_metric = "hpr_assessments_assessed_total";
            break;
        case core::Verdict::kInsufficientHistory:
            verdict_metric = "hpr_assessments_insufficient_total";
            break;
    }
    ASSERT_NE(verdict_metric, nullptr);
    EXPECT_GE(registry.counter(verdict_metric).value(), 1u);
}

}  // namespace
}  // namespace hpr::obs
