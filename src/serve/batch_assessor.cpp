#include "serve/batch_assessor.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace hpr::serve {

namespace {

/// Batch-serving metrics, shared by every BatchAssessor in the process.
struct ServeMetrics {
    obs::Counter& batches;
    obs::Counter& batch_servers;
    obs::Counter& observes;
    obs::Counter& shortcuts;
    obs::Counter& screener_evicted;
    obs::Histogram& batch_seconds;
    obs::Gauge& threads;
    obs::Gauge& screener_streams;
    obs::Gauge& screener_bytes;
};

ServeMetrics& serve_metrics() {
    auto& registry = obs::default_registry();
    static ServeMetrics metrics{
        registry.counter("hpr_serving_batches_total",
                         "Batch assessment requests served"),
        registry.counter("hpr_serving_batch_servers_total",
                         "Servers assessed through the batch path"),
        registry.counter("hpr_serving_incremental_observes_total",
                         "Feedbacks streamed into incremental screeners"),
        registry.counter("hpr_serving_incremental_shortcuts_total",
                         "Assessments answered from a standing screener state"),
        registry.counter("hpr_serving_screener_evicted_total",
                         "Screeners released by retention eviction"),
        registry.histogram("hpr_serving_batch_seconds",
                           "Whole-batch assessment latency"),
        registry.gauge("hpr_serving_threads",
                       "Executors (pool workers + caller) of a batch assessor"),
        registry.gauge("hpr_serving_screener_streams",
                       "Servers with a live incremental screener"),
        registry.gauge("hpr_serving_screener_bytes",
                       "Resident bytes of the incremental screener bank"),
    };
    return metrics;
}

std::size_t resolve_threads(std::size_t configured) {
    if (configured != 0) return configured;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Rough per-node overhead of the std::map the bank stores screeners in:
/// left/right/parent pointers, color, and the key.
constexpr std::size_t kStreamNodeOverhead =
    4 * sizeof(void*) + sizeof(repsys::EntityId);

/// Lock stripes of the screener bank.
constexpr std::size_t kScreenerStripes = 16;

/// One server's stream in the bank: the screener judging phase 1 and the
/// phase-2 trust accumulator, both fed the same outcomes in the same order.
struct Stream {
    core::OnlineScreener screener;
    std::unique_ptr<repsys::TrustAccumulator> trust;
    std::size_t folded = 0;  ///< feedbacks `trust` has folded
};

/// Resident bytes of one stream, map node included.
std::size_t stream_bytes(const Stream& stream) {
    return stream.screener.memory_bytes() + sizeof(Stream) -
           sizeof(core::OnlineScreener) + stream.trust->memory_bytes() +
           kStreamNodeOverhead;
}

}  // namespace

/// One lock stripe of the streaming screener bank.
struct BatchAssessor::ScreenerStripe {
    mutable std::mutex mutex;
    std::map<repsys::EntityId, Stream> streams;
};

BatchAssessor::BatchAssessor(BatchAssessorConfig config,
                             std::shared_ptr<const repsys::TrustFunction> trust,
                             std::shared_ptr<stats::Calibrator> calibrator)
    : config_(config),
      assessor_(config.assessment, std::move(trust), std::move(calibrator)),
      threads_(resolve_threads(config.threads)),
      pool_(threads_ - 1) {
    stripes_.reserve(kScreenerStripes);
    for (std::size_t i = 0; i < kScreenerStripes; ++i) {
        stripes_.push_back(std::make_unique<ScreenerStripe>());
    }
    serve_metrics().threads.set(static_cast<std::int64_t>(threads_));
}

BatchAssessor::~BatchAssessor() = default;

BatchAssessor::ScreenerStripe& BatchAssessor::stripe_for(
    repsys::EntityId server) const {
    std::uint64_t state = static_cast<std::uint64_t>(server) + 0x9e3779b97f4a7c15ULL;
    return *stripes_[stats::splitmix64(state) % stripes_.size()];
}

void BatchAssessor::observe(const repsys::Feedback& feedback) {
    ScreenerStripe& stripe = stripe_for(feedback.server);
    bool created = false;
    std::size_t created_bytes = 0;
    {
        const std::lock_guard<std::mutex> lock{stripe.mutex};
        auto it = stripe.streams.find(feedback.server);
        if (it == stripe.streams.end()) {
            core::OnlineScreenerConfig screener_config;
            screener_config.test = config_.assessment.test;
            screener_config.max_windows = config_.screener_horizon;
            it = stripe.streams
                     .emplace(feedback.server,
                              Stream{core::OnlineScreener{screener_config,
                                                          assessor_.calibrator()},
                                     assessor_.trust_function().make_accumulator()})
                     .first;
            it->second.screener.set_entity(feedback.server);
            created = true;
            created_bytes = stream_bytes(it->second);
        }
        Stream& stream = it->second;
        stream.trust->update(feedback.good());
        ++stream.folded;
        stream.screener.observe(feedback);
    }
    ServeMetrics& metrics = serve_metrics();
    metrics.observes.increment();
    if (created) {
        metrics.screener_streams.add(1);
        metrics.screener_bytes.add(static_cast<std::int64_t>(created_bytes));
    }
}

core::StreamState BatchAssessor::stream_state(repsys::EntityId server) const {
    const ScreenerStripe& stripe = stripe_for(server);
    const std::lock_guard<std::mutex> lock{stripe.mutex};
    const auto it = stripe.streams.find(server);
    return it == stripe.streams.end() ? core::StreamState::kInsufficient
                                      : it->second.screener.state();
}

std::optional<BatchAssessor::StreamInfo> BatchAssessor::stream_info(
    repsys::EntityId server) const {
    const ScreenerStripe& stripe = stripe_for(server);
    const std::lock_guard<std::mutex> lock{stripe.mutex};
    const auto it = stripe.streams.find(server);
    if (it == stripe.streams.end()) return std::nullopt;
    const core::OnlineScreener& screener = it->second.screener;
    StreamInfo info;
    info.state = screener.state();
    info.transactions = screener.transactions();
    info.windows = screener.windows();
    info.retained_windows = screener.retained_windows();
    info.horizon = screener.horizon();
    info.evaluations = screener.evaluations();
    info.failing_streak = screener.failing_streak();
    info.passing_streak = screener.passing_streak();
    info.p_hat = screener.p_hat();
    info.memory_bytes = screener.memory_bytes();
    return info;
}

std::size_t BatchAssessor::drop_streams(std::span<const repsys::EntityId> servers) {
    std::size_t dropped = 0;
    std::size_t released_bytes = 0;
    for (const repsys::EntityId server : servers) {
        ScreenerStripe& stripe = stripe_for(server);
        const std::lock_guard<std::mutex> lock{stripe.mutex};
        const auto it = stripe.streams.find(server);
        if (it == stripe.streams.end()) continue;
        released_bytes += stream_bytes(it->second);
        stripe.streams.erase(it);
        ++dropped;
    }
    if (dropped > 0) {
        ServeMetrics& metrics = serve_metrics();
        metrics.screener_evicted.increment(dropped);
        metrics.screener_streams.add(-static_cast<std::int64_t>(dropped));
        metrics.screener_bytes.add(-static_cast<std::int64_t>(released_bytes));
    }
    return dropped;
}

std::size_t BatchAssessor::evict_streams(const repsys::FeedbackStore& store) {
    std::vector<repsys::EntityId> stale;
    for (const auto& stripe : stripes_) {
        const std::lock_guard<std::mutex> lock{stripe->mutex};
        for (const auto& [server, stream] : stripe->streams) {
            if (!store.contains(server)) stale.push_back(server);
        }
    }
    return drop_streams(stale);
}

std::size_t BatchAssessor::tracked_streams() const {
    std::size_t total = 0;
    for (const auto& stripe : stripes_) {
        const std::lock_guard<std::mutex> lock{stripe->mutex};
        total += stripe->streams.size();
    }
    return total;
}

std::size_t BatchAssessor::stream_memory_bytes() const {
    std::size_t total = 0;
    for (const auto& stripe : stripes_) {
        const std::lock_guard<std::mutex> lock{stripe->mutex};
        for (const auto& [server, stream] : stripe->streams) {
            total += stream_bytes(stream);
        }
    }
    serve_metrics().screener_bytes.set(static_cast<std::int64_t>(total));
    return total;
}

BatchAssessor::ServedAssessment BatchAssessor::assess_one(
    const repsys::FeedbackStore& store, repsys::EntityId server,
    bool use_streams) const {
    ServedAssessment served;
    core::Assessment& assessment = served.assessment;
    if (use_streams) {
        // The standing screener state replaces the O(n) phase-1 rescan
        // once the stream has been judged at least once; insufficient
        // streams fall through to the full scan below.
        double stream_trust = 0.0;
        std::size_t folded = 0;
        {
            const ScreenerStripe& stripe = stripe_for(server);
            const std::lock_guard<std::mutex> lock{stripe.mutex};
            const auto it = stripe.streams.find(server);
            if (it != stripe.streams.end()) {
                served.stream_state = it->second.screener.state();
                stream_trust = it->second.trust->value();
                folded = it->second.folded;
            }
        }
        switch (served.stream_state) {
            case core::StreamState::kSuspicious:
                serve_metrics().shortcuts.increment();
                assessment.verdict = core::Verdict::kSuspicious;
                assessment.screening.passed = false;
                assessment.screening.sufficient = true;
                return served;
            case core::StreamState::kClear: {
                serve_metrics().shortcuts.increment();
                assessment.verdict = core::Verdict::kAssessed;
                assessment.screening.passed = true;
                assessment.screening.sufficient = true;
                // The stream's trust is evaluate() over the feedbacks it
                // folded.  Those are the store's log exactly when nothing
                // was trimmed from the log's front and the counts agree
                // (both sides see each server's feedbacks in commit
                // order); otherwise phase 2 re-folds a snapshot.
                const auto extent = store.history_extent(server);
                if (!extent) {
                    throw std::out_of_range("BatchAssessor: unknown server " +
                                            std::to_string(server));
                }
                if (extent->trimmed == 0 && extent->length == folded) {
                    assessment.trust = stream_trust;
                    served.history_length = extent->length;
                } else {
                    const repsys::TransactionHistory history =
                        store.history_snapshot(server);
                    assessment.trust =
                        assessor_.trust_function().evaluate(history.view());
                    served.history_length = history.size();
                }
                return served;
            }
            case core::StreamState::kInsufficient: break;
        }
    }
    const repsys::TransactionHistory history = store.history_snapshot(server);
    served.history_length = history.size();
    assessment = assessor_.assess(history);
    return served;
}

BatchAssessor::ServedAssessment BatchAssessor::assess_served(
    const repsys::FeedbackStore& store, repsys::EntityId server) const {
    ServeMetrics& metrics = serve_metrics();
    metrics.batches.increment();
    metrics.batch_servers.increment();
    const obs::ScopedTimer timer{metrics.batch_seconds};
    ServedAssessment served = assess_one(store, server, /*use_streams=*/true);
    if (served.stream_state == core::StreamState::kSuspicious) {
        // The suspicious shortcut never reads the store.
        served.history_length = store.history_length(server).value_or(0);
    }
    return served;
}

std::vector<ServerAssessment> BatchAssessor::assess_impl(
    const repsys::FeedbackStore& store,
    const std::vector<repsys::EntityId>& servers, bool use_streams) const {
    ServeMetrics& metrics = serve_metrics();
    metrics.batches.increment();
    metrics.batch_servers.increment(servers.size());
    std::vector<ServerAssessment> results(servers.size());
    const obs::ScopedTimer timer{metrics.batch_seconds};
    // Each pool worker screens with its own thread-local scratch arena
    // (core/scratch.h) and the shared reference-model cache configured on
    // config_.assessment.test.base, so steady-state screening neither
    // allocates nor rebuilds Binomial tables — see docs/scaling.md
    // ("Assessment hot path").
    pool_.parallel_for(servers.size(), [&](std::size_t i) {
        results[i].server = servers[i];
        results[i].assessment =
            assess_one(store, servers[i], use_streams).assessment;
    });
    return results;
}

std::vector<ServerAssessment> BatchAssessor::assess(
    const repsys::FeedbackStore& store,
    const std::vector<repsys::EntityId>& servers) const {
    return assess_impl(store, servers, /*use_streams=*/true);
}

std::vector<ServerAssessment> BatchAssessor::assess_batch(
    const repsys::FeedbackStore& store,
    const std::vector<repsys::EntityId>& servers) const {
    return assess_impl(store, servers, /*use_streams=*/false);
}

std::vector<ServerAssessment> BatchAssessor::assess_all(
    const repsys::FeedbackStore& store) const {
    return assess(store, store.servers());
}

}  // namespace hpr::serve
