// Golden bytes of every JSON text the library emits: decision records,
// recorder snapshot frames, health frames, black-box trace frames, the
// registry's JSON and Prometheus exports, and the /timeseries pages —
// each rendered from fixed inputs and compared whole.  servebench parses
// /metrics.json between phases and the CI validators read /traces,
// black-box dumps and the metric inventory, so a changed separator, key
// order, escape or number form must fail here, not downstream.

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "net/endpoints.h"
#include "obs/export.h"
#include "obs/flightrecorder.h"
#include "obs/introspection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace hpr::obs {
namespace {

/// Every optional field set; quotes, backslashes and control characters
/// in the strings; doubles that need all 17 digits to round-trip.
DecisionRecord full_record() {
    DecisionRecord record;
    record.trace_id = 18446744073709551615ULL;
    record.source = "two_phase \"quoted\"";
    record.server = 4294967295ULL;
    record.wall_time = 1760000000.123456789;
    record.verdict = "flagged\tby\\ladder";
    record.transition = "flagged\n";
    record.trust = 0.1;
    record.mode = std::string{"multi\x01\x1f"};
    record.collusion_resilient = true;
    record.window_size = 10;
    record.history_length = 640;
    record.p_hat = 2.0 / 3.0;
    record.min_margin = -0.0125;
    record.failed = StageEvidence{80, 8, 0.5, 0.31, 0.27, true, false};
    record.reorder = ReorderSummary{true, 6, 40, 1.0 / 3.0};
    record.runs = RunsEvidence{true, false, -2.5758293035489, 1.959963984540054};
    record.stages = {StageEvidence{40, 4, 0.75, 0.1, 0.3, false, true},
                     *record.failed};
    record.spans = {SpanRecord{"phase1/ladder\r\b\f", 1, 1e-6, 2.5e-5},
                    SpanRecord{"phase1/screen", 0, 0.0, 3e-5}};
    return record;
}

/// No optional field set: the omitted keys and empty arrays.
DecisionRecord bare_record() {
    DecisionRecord record;
    record.trace_id = 2;
    record.source = "online_screener";
    record.server = 7;
    record.wall_time = 1760000002.5;
    record.verdict = "clear";
    record.mode = "multi";
    return record;
}

/// Mask the per-run timing fields of /timeseries points.
std::string mask_timing(const std::string& body) {
    static const std::regex timing{R"re("(wall_time|interval)":[^,}]*)re"};
    return std::regex_replace(body, timing, R"("$1":*)");
}

TEST(JsonGolden, DecisionRecordWithEveryField) {
    EXPECT_EQ(
        to_jsonl(full_record()),
        R"({"trace_id":18446744073709551615,"source":"two_phase \"quoted\"","server":4294967295,"wall_time":1760000000.1234567,"verdict":"flagged\tby\\ladder","transition":"flagged\n","trust":0.10000000000000001,"mode":"multi\u0001\u001f","collusion_resilient":true,"window_size":10,"history_length":640,"p_hat":0.66666666666666663,"min_margin":-0.012500000000000001,"failed":{"suffix_length":80,"windows":8,"p_hat":0.5,"distance":0.31,"epsilon":0.27000000000000002,"sufficient":true,"passed":false},"reorder":{"issuers":6,"largest_group":40,"displaced_fraction":0.33333333333333331},"runs":{"passed":false,"z":-2.5758293035488999,"z_threshold":1.959963984540054},"stages":[{"suffix_length":40,"windows":4,"p_hat":0.75,"distance":0.10000000000000001,"epsilon":0.29999999999999999,"sufficient":false,"passed":true},{"suffix_length":80,"windows":8,"p_hat":0.5,"distance":0.31,"epsilon":0.27000000000000002,"sufficient":true,"passed":false}],"spans":[{"name":"phase1/ladder\r\b\f","depth":1,"start":9.9999999999999995e-07,"duration":2.5000000000000001e-05},{"name":"phase1/screen","depth":0,"start":0,"duration":3.0000000000000001e-05}]})");
}

TEST(JsonGolden, DecisionRecordWithoutOptionals) {
    EXPECT_EQ(
        to_jsonl(bare_record()),
        R"({"trace_id":2,"source":"online_screener","server":7,"wall_time":1760000002.5,"verdict":"clear","mode":"multi","collusion_resilient":false,"window_size":0,"history_length":0,"p_hat":0,"min_margin":0,"stages":[],"spans":[]})");
}

TEST(JsonGolden, RecorderSnapshotFrame) {
    RecorderSnapshot snapshot;
    snapshot.sequence = 3;
    snapshot.wall_time = 1760000000.25;
    snapshot.uptime_seconds = 12.5;
    snapshot.interval_seconds = 1.0 / 3.0;
    snapshot.points = {
        {"a_requests_total",
         MetricPoint{.kind = MetricKind::kCounter, .value = 17, .delta = 7}},
        {"b_queue\"depth", MetricPoint{.kind = MetricKind::kGauge, .level = -3}},
        {"c_latency_seconds",
         MetricPoint{.kind = MetricKind::kHistogram,
                     .count = 200,
                     .interval_count = 100,
                     .interval_sum = 0.123456789012345,
                     .p50 = 0.055,
                     .p95 = 0.0955,
                     .p99 = 2.0 / 3.0}},
        {"d_idle_total", MetricPoint{.kind = MetricKind::kCounter}},
    };
    EXPECT_EQ(
        to_frame(snapshot),
        R"({"type":"snapshot","seq":3,"wall_time":1760000000.25,"uptime":12.5,"interval":0.333333333333,"counters":{"a_requests_total":{"value":17,"delta":7},"d_idle_total":{"value":0,"delta":0}},"gauges":{"b_queue\"depth":-3},"histograms":{"c_latency_seconds":{"count":200,"interval_count":100,"interval_sum":0.123456789012,"p50":0.055,"p95":0.0955,"p99":0.666666666667}}})");
    EXPECT_EQ(to_frame(RecorderSnapshot{}),
              R"({"type":"snapshot","seq":0,"wall_time":0,"uptime":0,"interval":0,"counters":{},"gauges":{},"histograms":{}})");
}

TEST(JsonGolden, HealthVerdictFrame) {
    HealthVerdict verdict;
    verdict.healthy = false;
    verdict.sequence = 9;
    verdict.wall_time = 1760000001.75;
    verdict.uptime_seconds = 13.75;
    verdict.signals = {
        HealthSignal{"assess_p99", true, true, 0.1 + 0.2, 1.5,
                     "p99 \"rose\"\n2x"},
        HealthSignal{"heartbeat", false, false, 0.0, 1e-7, ""},
    };
    EXPECT_EQ(
        to_frame(verdict),
        R"({"type":"health","seq":9,"wall_time":1760000001.75,"uptime":13.75,"healthy":false,"signals":[{"name":"assess_p99","evaluated":true,"firing":true,"value":0.3,"threshold":1.5,"detail":"p99 \"rose\"\n2x"},{"name":"heartbeat","evaluated":false,"firing":false,"value":0,"threshold":1e-07,"detail":""}]})");
    EXPECT_EQ(to_frame(HealthVerdict{}),
              R"({"type":"health","seq":0,"wall_time":0,"uptime":0,"healthy":true,"signals":[]})");
}

TEST(JsonGolden, BlackBoxTraceFrames) {
    Registry registry;
    const FlightRecorder recorder{{}, registry};
    Tracer tracer;
    tracer.ring().push(full_record());
    tracer.ring().push(bare_record());
    EXPECT_EQ(render_blackbox(recorder, nullptr, &tracer, 0, 2),
              R"({"type":"trace","record":)" + to_jsonl(full_record()) +
                  "}\n" + R"({"type":"trace","record":)" +
                  to_jsonl(bare_record()) + "}\n");
}

TEST(JsonGolden, RegistryExports) {
    Registry registry;
    registry.counter("hpr_test_requests_total", "requests").increment(42);
    registry.gauge("hpr_test_depth", "depth").set(-7);
    registry
        .gauge("hpr_test_build_info", "build",
               Registry::LabelSet{{"version", "1.2\"3"}, {"path", "a\\b\n"}})
        .set(1);
    Histogram& latency = registry.histogram("hpr_test_latency_seconds", "latency",
                                            {0.001, 0.01, 0.1});
    for (int i = 0; i < 3; ++i) latency.observe(0.0005);
    latency.observe(0.05);
    latency.observe(7.0);
    EXPECT_EQ(
        to_json(registry),
        R"({"counters":{"hpr_test_requests_total":42},"gauges":{"hpr_test_build_info":{"value":1,"labels":{"version":"1.2\"3","path":"a\\b\n"}},"hpr_test_depth":-7},"histograms":{"hpr_test_latency_seconds":{"count":5,"sum":7.0515,"mean":1.4103,"p50":0.001,"p95":0.1,"p99":0.1,"buckets":[["0.001",3],["0.01",3],["0.1",4],["+Inf",5]]}}})");
    EXPECT_EQ(to_prometheus(registry),
              "# HELP hpr_test_build_info build\n"
              "# TYPE hpr_test_build_info gauge\n"
              "hpr_test_build_info{version=\"1.2\\\"3\",path=\"a\\\\b\\n\"} 1\n"
              "# HELP hpr_test_depth depth\n"
              "# TYPE hpr_test_depth gauge\n"
              "hpr_test_depth -7\n"
              "# HELP hpr_test_latency_seconds latency\n"
              "# TYPE hpr_test_latency_seconds histogram\n"
              "hpr_test_latency_seconds_bucket{le=\"0.001\"} 3\n"
              "hpr_test_latency_seconds_bucket{le=\"0.01\"} 3\n"
              "hpr_test_latency_seconds_bucket{le=\"0.1\"} 4\n"
              "hpr_test_latency_seconds_bucket{le=\"+Inf\"} 5\n"
              "hpr_test_latency_seconds_sum 7.0515\n"
              "hpr_test_latency_seconds_count 5\n"
              "# HELP hpr_test_requests_total requests\n"
              "# TYPE hpr_test_requests_total counter\n"
              "hpr_test_requests_total 42\n");
    Registry empty;
    EXPECT_EQ(to_json(empty), R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(JsonGolden, TimeseriesPages) {
    Registry registry;
    Counter& requests = registry.counter("t_requests_total", "requests");
    Gauge& depth = registry.gauge("t_depth", "depth");
    Histogram& latency =
        registry.histogram("t_latency_seconds", "latency", {0.001, 0.01, 0.1});
    FlightRecorder recorder{{.interval_seconds = 0.5, .capacity = 4}, registry};
    requests.increment(5);
    depth.set(3);
    latency.observe(0.0005);
    (void)recorder.sample_now();
    requests.increment(7);
    depth.set(-2);
    for (int i = 0; i < 10; ++i) latency.observe(0.005);
    latency.observe(0.05);
    (void)recorder.sample_now();

    IntrospectionTree tree;
    net::IntrospectionSources sources;
    sources.recorder = &recorder;
    net::register_introspection(tree, sources);

    EXPECT_EQ(
        tree.get("/timeseries").body,
        R"({"interval_seconds":0.5,"capacity":4,"size":2,"samples_taken":2,"metrics":[{"name":"hpr_flightrecorder_sample_seconds","kind":"histogram"},{"name":"hpr_flightrecorder_samples_total","kind":"counter"},{"name":"hpr_flightrecorder_snapshots","kind":"gauge"},{"name":"t_depth","kind":"gauge"},{"name":"t_latency_seconds","kind":"histogram"},{"name":"t_requests_total","kind":"counter"}]})");
    EXPECT_EQ(
        mask_timing(tree.get("/timeseries?metric=t_requests_total").body),
        R"({"metric":"t_requests_total","kind":"counter","points":[{"seq":1,"wall_time":*,"interval":*,"value":5,"delta":0},{"seq":2,"wall_time":*,"interval":*,"value":12,"delta":7}]})");
    EXPECT_EQ(
        mask_timing(tree.get("/timeseries?metric=t_depth").body),
        R"({"metric":"t_depth","kind":"gauge","points":[{"seq":1,"wall_time":*,"interval":*,"level":3},{"seq":2,"wall_time":*,"interval":*,"level":-2}]})");
    EXPECT_EQ(
        mask_timing(tree.get("/timeseries?metric=t_latency_seconds&n=1").body),
        R"({"metric":"t_latency_seconds","kind":"histogram","points":[{"seq":2,"wall_time":*,"interval":*,"count":12,"interval_count":11,"interval_sum":0.1,"p50":0.0064,"p95":0.1,"p99":0.1}]})");
}

}  // namespace
}  // namespace hpr::obs
