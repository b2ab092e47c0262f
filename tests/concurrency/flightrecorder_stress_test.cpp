// Flight recorder under fire (obs/flightrecorder.h): writer threads
// hammering the sampled registry, reader threads querying the ring, a
// watchdog evaluating, and black-box publishes — all while the sampler
// thread ticks at an aggressive cadence.  The assertions are about
// invariants (monotone sequences, consistent snapshots, no torn reads,
// no health signal firing under a healthy load), not timing.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/flightrecorder.h"
#include "obs/watchdog.h"

namespace hpr::obs {
namespace {

TEST(FlightRecorderStress, ConcurrentWritersReadersAndSampler) {
    Registry registry;
    Counter& events = registry.counter("stress_events_total", "stress");
    Gauge& depth = registry.gauge("stress_depth", "stress");
    Histogram& latency =
        registry.histogram("stress_latency_seconds", "stress", {0.001, 0.1});
    // The series the watchdog judges, moved the way a healthy daemon
    // moves them: ingest never pauses and both caches hit 15 of every 16
    // lookups.
    Counter& ingested = registry.counter("hpr_store_ingest_total", "stress");
    Counter& calibration_hits =
        registry.counter("hpr_calibration_cache_hits_total", "stress");
    Counter& calibration_misses =
        registry.counter("hpr_calibration_cache_misses_total", "stress");
    Counter& refmodel_hits =
        registry.counter("hpr_refmodel_cache_hits_total", "stress");
    Counter& refmodel_misses =
        registry.counter("hpr_refmodel_cache_misses_total", "stress");

    FlightRecorder recorder{{.interval_seconds = 0.001, .capacity = 32},
                            registry};
    // A stall is 50 flat ticks: the 50 ms the daemon's defaults (5 ticks
    // of 10 ms) allow, at this test's 1 ms cadence.
    Watchdog watchdog{{.ingest_stall_intervals = 50}, registry};
    // Every signal but assess_p99 must stay quiet at every tick; that one
    // judges latency, which host load moves.  `judged` counts the ticks
    // that judged both caches and ingest, so the check is not vacuous.
    std::atomic<std::uint64_t> false_alarms{0};
    std::atomic<std::uint64_t> judged{0};
    recorder.set_on_sample([&](const FlightRecorder& rec, const RecorderSnapshot&) {
        const HealthVerdict verdict = watchdog.evaluate(rec);
        std::size_t evaluated = 0;
        for (const HealthSignal& signal : verdict.signals) {
            if (signal.name == "assess_p99") continue;
            if (signal.firing) false_alarms.fetch_add(1, std::memory_order_relaxed);
            if (signal.evaluated) ++evaluated;
        }
        if (evaluated == 3) judged.fetch_add(1, std::memory_order_relaxed);
    });
    recorder.start();

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    // Writers mutate the registry the sampler is visiting.
    for (int w = 0; w < 3; ++w) {
        workers.emplace_back([&] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                events.increment();
                depth.set(static_cast<std::int64_t>(i % 100));
                latency.observe(0.0005);
                ingested.increment();
                if (i % 16 == 0) {
                    calibration_misses.increment();
                    refmodel_misses.increment();
                } else {
                    calibration_hits.increment();
                    refmodel_hits.increment();
                }
                ++i;
            }
        });
    }
    // Readers race the sampler on the ring.
    std::atomic<bool> invariant_ok{true};
    for (int r = 0; r < 2; ++r) {
        workers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const std::vector<RecorderSnapshot> snapshots =
                    recorder.snapshots();
                for (std::size_t i = 1; i < snapshots.size(); ++i) {
                    if (snapshots[i].sequence != snapshots[i - 1].sequence + 1) {
                        invariant_ok.store(false);
                    }
                }
                (void)recorder.series("stress_events_total", 8);
                (void)recorder.metric_names();
                (void)watchdog.last_verdict();
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop.store(true);
    for (std::thread& worker : workers) worker.join();
    recorder.stop();

    EXPECT_TRUE(invariant_ok.load());
    EXPECT_GE(recorder.samples_taken(), 3u);
    EXPECT_LE(recorder.size(), 32u);
    EXPECT_EQ(watchdog.evaluations(), recorder.samples_taken());
    EXPECT_EQ(false_alarms.load(), 0u);
    EXPECT_GT(judged.load(), 0u);

    // The final ring is coherent: counter values never decrease along it.
    const std::vector<RecorderSnapshot> final_ring = recorder.snapshots();
    std::uint64_t last_value = 0;
    for (const RecorderSnapshot& snapshot : final_ring) {
        for (const auto& [name, point] : snapshot.points) {
            if (name != "stress_events_total") continue;
            EXPECT_GE(point.value, last_value);
            last_value = point.value;
        }
    }
}

TEST(FlightRecorderStress, PublishRacesRecorderTicks) {
    Registry registry;
    Counter& events = registry.counter("stress_pub_total", "stress");
    FlightRecorder recorder{{.interval_seconds = 0.001, .capacity = 16},
                            registry};

    const std::string path = testing::TempDir() + "blackbox_stress_" +
                             std::to_string(::getpid());
    BlackBox& box = BlackBox::instance();
    ASSERT_TRUE(box.arm(path, 1 << 20));
    const std::uint64_t publishes_before = box.publishes();
    recorder.set_on_sample(
        [](const FlightRecorder& rec, const RecorderSnapshot&) {
            BlackBox::instance().publish(render_blackbox(rec, nullptr, nullptr));
        });
    recorder.start();

    std::atomic<bool> stop{false};
    std::thread writer{[&] {
        while (!stop.load(std::memory_order_relaxed)) events.increment();
    }};
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    writer.join();
    recorder.stop();

    EXPECT_EQ(box.publishes() - publishes_before, recorder.samples_taken());
    EXPECT_GT(box.staged_bytes(), 0u);
    box.disarm();
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hpr::obs
