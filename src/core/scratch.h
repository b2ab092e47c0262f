#ifndef HPR_CORE_SCRATCH_H
#define HPR_CORE_SCRATCH_H

/// \file scratch.h
/// Per-thread reusable buffers for the assessment hot path.
///
/// Screening reduces a history to window counts over the small support
/// {0..m}; allocating that histogram per suffix ladder (and per raw
/// sequence) was the last allocation on the phase-1 path.  Each thread
/// instead owns one AssessmentScratch whose slots are reset (not
/// reallocated) on reuse, so steady-state screening never touches the
/// allocator.  serve::BatchAssessor workers get this for free: a pool
/// thread's arena persists across every server it assesses.
///
/// Ownership rules (who may reset which slot):
///
///  * `ladder_counts` belongs to the outermost suffix-ladder loop on the
///    calling thread — core::run_ladder (multi_test.h), which both
///    MultiTest::test and OnlineScreener::evaluate run.  It hands the slot to
///    BehaviorTest::test(counts, confidence) as a borrowed const
///    reference; the single test never resets or writes any slot a
///    ladder may own.
///  * `window_counts` belongs to BehaviorTest's raw-sequence entry points
///    (test(span<Feedback>), test(span<uint8_t>)), which are never
///    reached from inside a ladder loop.
///
/// The slots are deliberately distinct so the two owners can coexist on
/// one call stack (a ladder stage calling the single test) without
/// clobbering each other.

#include "stats/empirical.h"

namespace hpr::core {

/// One thread's reusable assessment buffers.
struct AssessmentScratch {
    /// Suffix-ladder window-count histogram (MultiTest / OnlineScreener).
    stats::EmpiricalDistribution ladder_counts{0};

    /// Raw-sequence window-count histogram (BehaviorTest span entries).
    stats::EmpiricalDistribution window_counts{0};
};

/// The calling thread's scratch arena.
[[nodiscard]] AssessmentScratch& assessment_scratch() noexcept;

}  // namespace hpr::core

#endif  // HPR_CORE_SCRATCH_H
