/**
 * @file
 * Flat-scan reference schedulers: the original O(N)-per-pick FR-FCFS and
 * BLISS implementations, kept as the behavioural oracle for the indexed
 * TxQueue paths (as heap_event_queue.hh keeps the binary-heap event
 * queue). They live with the tests and are never linked into the
 * simulator.
 *
 * Every pick walks the channel's seq-ordered list, re-decoding row-hit
 * and bank-ready state per entry — the honest old cost, measured by
 * bench/perf_txq. The ordering key is the shared, widened SchedKey, so
 * the reference and indexed paths are bit-identical by construction;
 * tests/tx_queue_test.cpp checks that pick by pick on randomized
 * request streams, and McFixture.ReferenceSchedulerMatchesIndexedTimings
 * checks whole-controller completion timings by passing
 * makeReferenceScheduler to the MemoryController constructor.
 */

#ifndef TEMPO_ORACLES_REFERENCE_SCHEDULER_HH
#define TEMPO_ORACLES_REFERENCE_SCHEDULER_HH

#include <memory>

#include "mc/bliss.hh"
#include "mc/memory_controller.hh"
#include "mc/scheduler.hh"

namespace tempo {

/** FR-FCFS via full flat rescans of the channel. */
class RefFrFcfsScheduler : public FrFcfsScheduler
{
  public:
    using FrFcfsScheduler::FrFcfsScheduler;

    std::uint32_t pick(const TxQueue &txq, unsigned ch,
                       const DramDevice &dram, Cycle now) override;
};

/** BLISS via full flat rescans of the channel. */
class RefBlissScheduler : public BlissScheduler
{
  public:
    using BlissScheduler::BlissScheduler;

    std::uint32_t pick(const TxQueue &txq, unsigned ch,
                       const DramDevice &dram, Cycle now) override;
};

/** SchedulerFactory building the flat-scan scheduler for @p kind. */
std::unique_ptr<Scheduler> makeReferenceScheduler(
    SchedKind kind, const SchedulerConfig &cfg);

} // namespace tempo

#endif // TEMPO_ORACLES_REFERENCE_SCHEDULER_HH
