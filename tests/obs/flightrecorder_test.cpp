// The flight recorder (obs/flightrecorder.h): deterministic tick
// semantics on a private registry (counter deltas, gauge levels,
// interval histogram quantiles), ring eviction, series queries, the
// sampler thread, and the crash black-box — including a death test
// that kills the process with SIGSEGV and validates the recovered dump.

#include "obs/flightrecorder.h"

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/watchdog.h"

namespace hpr::obs {
namespace {

const MetricPoint* find(const RecorderSnapshot& snapshot,
                        std::string_view name) {
    for (const auto& [metric, point] : snapshot.points) {
        if (metric == name) return &point;
    }
    return nullptr;
}

TEST(FlightRecorder, RejectsBadConfig) {
    Registry registry;
    EXPECT_THROW(FlightRecorder({.interval_seconds = 0.0}, registry),
                 std::invalid_argument);
    EXPECT_THROW(FlightRecorder({.interval_seconds = -1.0}, registry),
                 std::invalid_argument);
    EXPECT_THROW(FlightRecorder({.capacity = 0}, registry),
                 std::invalid_argument);
}

TEST(FlightRecorder, CounterDeltasAcrossTicks) {
    Registry registry;
    Counter& requests = registry.counter("test_requests_total", "test");
    requests.increment(10);

    FlightRecorder recorder{{}, registry};
    const RecorderSnapshot first = recorder.sample_now();
    const MetricPoint* point = find(first, "test_requests_total");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->kind, MetricKind::kCounter);
    EXPECT_EQ(point->value, 10u);
    // First sight: no previous sample to diff against.
    EXPECT_EQ(point->delta, 0u);
    EXPECT_EQ(first.sequence, 1u);

    requests.increment(7);
    const RecorderSnapshot second = recorder.sample_now();
    point = find(second, "test_requests_total");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->value, 17u);
    EXPECT_EQ(point->delta, 7u);
    EXPECT_EQ(second.sequence, 2u);
    EXPECT_GE(second.interval_seconds, 0.0);
}

TEST(FlightRecorder, GaugeLevelsAreInstantaneous) {
    Registry registry;
    Gauge& depth = registry.gauge("test_queue_depth", "test");
    depth.set(42);
    FlightRecorder recorder{{}, registry};
    // find() points into the snapshot, so each one must outlive its use.
    const RecorderSnapshot first = recorder.sample_now();
    const MetricPoint* point = find(first, "test_queue_depth");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->kind, MetricKind::kGauge);
    EXPECT_EQ(point->level, 42);

    depth.set(-3);
    const RecorderSnapshot second = recorder.sample_now();
    point = find(second, "test_queue_depth");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->level, -3);
}

TEST(FlightRecorder, HistogramIntervalQuantilesUseBucketDeltas) {
    Registry registry;
    Histogram& latency = registry.histogram("test_latency_seconds", "test",
                                            {0.001, 0.01, 0.1, 1.0});
    FlightRecorder recorder{{}, registry};

    // Interval 1: 100 fast observations.
    for (int i = 0; i < 100; ++i) latency.observe(0.0005);
    const RecorderSnapshot fast = recorder.sample_now();
    const MetricPoint* point = find(fast, "test_latency_seconds");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->kind, MetricKind::kHistogram);
    EXPECT_EQ(point->count, 100u);
    // First sight: interval stats need a previous sample.
    EXPECT_EQ(point->interval_count, 0u);

    // Interval 2: 100 slow observations.  The cumulative histogram now
    // mixes both populations, but the interval p99 must reflect only
    // the slow ones — that is the recorder's whole reason to exist.
    for (int i = 0; i < 100; ++i) latency.observe(0.05);
    const RecorderSnapshot slow = recorder.sample_now();
    point = find(slow, "test_latency_seconds");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->count, 200u);
    EXPECT_EQ(point->interval_count, 100u);
    EXPECT_NEAR(point->interval_sum, 5.0, 1e-9);
    // All interval observations landed in the (0.01, 0.1] bucket.
    EXPECT_GT(point->p50, 0.01);
    EXPECT_LE(point->p99, 0.1);
    EXPECT_GT(point->p99, 0.01);

    // Interval 3: quiet — quantiles report zero, not stale values.
    const RecorderSnapshot quiet = recorder.sample_now();
    point = find(quiet, "test_latency_seconds");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->interval_count, 0u);
    EXPECT_EQ(point->p99, 0.0);
}

TEST(FlightRecorder, RingEvictsOldestFirst) {
    Registry registry;
    registry.counter("test_events_total", "test");
    FlightRecorder recorder{{.capacity = 4}, registry};
    for (int i = 0; i < 7; ++i) recorder.sample_now();

    EXPECT_EQ(recorder.size(), 4u);
    EXPECT_EQ(recorder.samples_taken(), 7u);
    const std::vector<RecorderSnapshot> retained = recorder.snapshots();
    ASSERT_EQ(retained.size(), 4u);
    for (std::size_t i = 0; i < retained.size(); ++i) {
        EXPECT_EQ(retained[i].sequence, 4 + i);  // 4, 5, 6, 7 oldest-first
    }
    EXPECT_EQ(recorder.snapshots(2).size(), 2u);
    EXPECT_EQ(recorder.snapshots(2).front().sequence, 6u);
}

TEST(FlightRecorder, SeriesSkipsSnapshotsBeforeRegistration) {
    Registry registry;
    registry.counter("test_early_total", "test");
    FlightRecorder recorder{{}, registry};
    recorder.sample_now();
    recorder.sample_now();

    // Registered between ticks: appears only from the third snapshot on.
    registry.counter("test_late_total", "test").increment(3);
    recorder.sample_now();

    EXPECT_EQ(recorder.series("test_early_total").size(), 3u);
    const std::vector<SeriesPoint> late = recorder.series("test_late_total");
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late.front().sequence, 3u);
    EXPECT_EQ(late.front().point.value, 3u);
    EXPECT_TRUE(recorder.series("test_never_registered").empty());

    const auto names = recorder.metric_names();
    ASSERT_FALSE(names.empty());
    EXPECT_TRUE(std::is_sorted(
        names.begin(), names.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(FlightRecorder, SamplerThreadTicksAndStops) {
    Registry registry;
    registry.counter("test_bg_total", "test");
    FlightRecorder recorder{{.interval_seconds = 0.01, .capacity = 64},
                            registry};
    std::uint64_t hook_calls = 0;
    recorder.set_on_sample(
        [&hook_calls](const FlightRecorder&, const RecorderSnapshot&) {
            ++hook_calls;
        });
    recorder.start();
    EXPECT_TRUE(recorder.running());
    EXPECT_THROW(recorder.start(), std::runtime_error);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    recorder.stop();
    EXPECT_FALSE(recorder.running());
    const std::uint64_t taken = recorder.samples_taken();
    EXPECT_GE(taken, 2u);  // one immediate tick + at least one interval
    EXPECT_EQ(hook_calls, taken);
    recorder.stop();  // idempotent
}

TEST(FlightRecorder, SnapshotFrameIsOneJsonObject) {
    Registry registry;
    registry.counter("test_c_total", "test").increment(2);
    registry.gauge("test_g", "test").set(5);
    registry.histogram("test_h_seconds", "test", {0.1, 1.0}).observe(0.05);
    FlightRecorder recorder{{}, registry};
    const std::string frame = to_frame(recorder.sample_now());

    EXPECT_EQ(frame.find("{\"type\":\"snapshot\",\"seq\":1,"), 0u);
    EXPECT_NE(frame.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(frame.find("\"test_c_total\":{\"value\":2,\"delta\":0}"),
              std::string::npos);
    EXPECT_NE(frame.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(frame.find("\"test_g\":5"), std::string::npos);
    EXPECT_NE(frame.find("\"histograms\":{"), std::string::npos);
    EXPECT_NE(frame.find("\"test_h_seconds\":{\"count\":1,"), std::string::npos);
    EXPECT_EQ(frame.find('\n'), std::string::npos);
    EXPECT_EQ(frame.back(), '}');
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(BlackBox, PublishStagesAndDisarmTruncates) {
    const std::string path =
        testing::TempDir() + "blackbox_clean_" + std::to_string(::getpid());
    BlackBox& box = BlackBox::instance();
    ASSERT_TRUE(box.arm(path, 4096));
    EXPECT_TRUE(box.armed());

    box.publish("{\"type\":\"snapshot\",\"seq\":1}\n");
    EXPECT_EQ(box.staged_bytes(), 28u);
    box.publish("{\"type\":\"snapshot\",\"seq\":2}\n{\"type\":\"health\"}\n");
    EXPECT_EQ(box.publishes(), 2u);

    // Clean shutdown: no crash happened, the dump must say so by being
    // empty rather than holding the last staged (healthy) payload.
    box.disarm();
    EXPECT_FALSE(box.armed());
    EXPECT_TRUE(read_file(path).empty());
    box.disarm();  // idempotent
    std::remove(path.c_str());
}

TEST(BlackBox, ArmFailsOnUnwritablePath) {
    EXPECT_FALSE(
        BlackBox::instance().arm("/nonexistent-dir/never/blackbox.dump"));
    EXPECT_FALSE(BlackBox::instance().armed());
}

/// Death-test child body: stage real recorder output, then die.  A free
/// function because commas in braced initializers confuse the
/// EXPECT_EXIT macro's argument parsing.
void crash_with_staged_payload(const std::string& path, int signal) {
    Registry registry;
    registry.counter("test_doomed_total", "doomed").increment(9);
    FlightRecorder recorder{{}, registry};
    recorder.sample_now();
    recorder.sample_now();
    BlackBox& box = BlackBox::instance();
    if (!box.arm(path, 1 << 16)) _exit(7);
    box.publish(render_blackbox(recorder, nullptr, nullptr));
    std::raise(signal);
}

TEST(BlackBoxDeathTest, SigsegvDumpsStagedFramesAndCrashFrame) {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "blackbox_crash_dump";

    EXPECT_EXIT(crash_with_staged_payload(path, SIGSEGV),
                testing::KilledBySignal(SIGSEGV), "");

    // The parent performs the post-mortem the runbook describes: the
    // dump must hold the staged snapshots plus the crash frame.
    const std::string dump = read_file(path);
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("\"type\":\"snapshot\""), std::string::npos);
    EXPECT_NE(dump.find("\"test_doomed_total\":{\"value\":9"),
              std::string::npos);
    EXPECT_NE(dump.find("{\"type\":\"crash\",\"signal\":11,\"name\":\"SIGSEGV\"}"),
              std::string::npos);
    EXPECT_EQ(dump.back(), '\n');
    std::remove(path.c_str());
}

void abort_with_health_frame(const std::string& path) {
    BlackBox& box = BlackBox::instance();
    if (!box.arm(path, 1 << 16)) _exit(7);
    box.publish("{\"type\":\"health\",\"healthy\":true}\n");
    std::abort();
}

TEST(BlackBoxDeathTest, SigabrtIsAlsoCaught) {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "blackbox_abort_dump";

    EXPECT_EXIT(abort_with_health_frame(path),
                testing::KilledBySignal(SIGABRT), "");

    const std::string dump = read_file(path);
    EXPECT_NE(dump.find("{\"type\":\"health\",\"healthy\":true}"),
              std::string::npos);
    EXPECT_NE(dump.find("{\"type\":\"crash\",\"signal\":6,\"name\":\"SIGABRT\"}"),
              std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hpr::obs
