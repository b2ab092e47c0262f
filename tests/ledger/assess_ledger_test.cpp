// Cost ledger of the assessment path: exact allocation counts, taken
// with a counting global operator new.  A count does not depend on host
// speed, so these pins cannot flake the way timing budgets do.
//
// The counter is thread-local and only runs inside count(), so gtest's
// own allocations and other threads never reach it; the assessors under
// test run with one executor, inline on the counting thread.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "repsys/store.h"
#include "repsys/trust.h"
#include "serve/batch_assessor.h"
#include "stats/rng.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
    if (t_counting) {
        ++t_allocations;
        t_bytes += size;
    }
    if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
    throw std::bad_alloc{};
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace hpr::serve {
namespace {

/// Allocations and bytes requested while `body` ran on this thread.
struct Ledger {
    std::size_t allocations = 0;
    std::size_t bytes = 0;
};

template <class Body>
Ledger count(Body&& body) {
    t_allocations = 0;
    t_bytes = 0;
    t_counting = true;
    body();
    t_counting = false;
    return Ledger{t_allocations, t_bytes};
}

/// Commits `count` honest feedbacks of `server` to the store in 1000-record
/// batches and streams each batch into the bank, as the ingest path does.
void warm(repsys::FeedbackStore& store, BatchAssessor& bank,
          repsys::EntityId server, std::size_t count) {
    stats::Rng rng{0x1ed9e7ULL + server};
    std::vector<repsys::Feedback> batch;
    for (std::size_t i = 0; i < count; ++i) {
        batch.push_back(repsys::Feedback{
            static_cast<repsys::Timestamp>(i + 1), server,
            static_cast<repsys::EntityId>(i % 11),
            rng.bernoulli(0.95) ? repsys::Rating::kPositive
                                : repsys::Rating::kNegative});
        if (batch.size() == 1000 || i + 1 == count) {
            store.ingest_batch(batch);
            for (const repsys::Feedback& feedback : batch) bank.observe(feedback);
            batch.clear();
        }
    }
}

// A clear stream's assess() costs the same at 1,000 and at 100,000
// records and copies none of them: the trust is the bank's folded value,
// not a re-fold of a history snapshot.
TEST(AssessLedger, ClearStreamCostIsIndependentOfHistoryLength) {
    BatchAssessorConfig config;
    config.assessment.mode = core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    config.threads = 1;
    BatchAssessor bank{config,
                       std::shared_ptr<const repsys::TrustFunction>{
                           repsys::make_trust_function("beta")}};
    repsys::FeedbackStore store;
    constexpr repsys::EntityId kShort = 1;
    constexpr repsys::EntityId kLong = 2;
    warm(store, bank, kShort, 1'000);
    warm(store, bank, kLong, 100'000);
    ASSERT_EQ(bank.stream_state(kShort), core::StreamState::kClear);
    ASSERT_EQ(bank.stream_state(kLong), core::StreamState::kClear);
    (void)bank.assess(store, {kShort});  // first-call registrations

    const std::vector<repsys::EntityId> short_id{kShort};
    const std::vector<repsys::EntityId> long_id{kLong};
    const Ledger short_assess = count([&] { (void)bank.assess(store, short_id); });
    const Ledger long_assess = count([&] { (void)bank.assess(store, long_id); });
    // The result vector and the pool's task; a history snapshot added 3.
    EXPECT_GT(short_assess.allocations, 0u);  // the counter is live
    EXPECT_LE(short_assess.allocations, 2u);
    EXPECT_EQ(long_assess.allocations, short_assess.allocations);
    EXPECT_EQ(long_assess.bytes, short_assess.bytes);
    EXPECT_LT(long_assess.bytes, 1'000 * sizeof(repsys::Feedback))
        << "assess() copied a history";

    // The single-server form behind /assess allocates nothing at all.
    const Ledger short_served =
        count([&] { (void)bank.assess_served(store, kShort); });
    const Ledger long_served =
        count([&] { (void)bank.assess_served(store, kLong); });
    EXPECT_EQ(short_served.allocations, 0u);
    EXPECT_EQ(long_served.allocations, 0u);
}

}  // namespace
}  // namespace hpr::serve
