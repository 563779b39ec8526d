/**
 * @file
 * The memory controller: an indexed per-channel transaction queue, a
 * pluggable scheduler, and TEMPO's additions — the PT? detector that
 * recognizes tagged leaf page-table requests, and the Prefetch Engine FSM
 * that turns a completed PT read into a post-translation prefetch (paper
 * Sec. 4.1).
 *
 * Requests live in one TxQueue slot from submit to completion: the queue
 * decodes DRAM coordinates once at enqueue, dispatch unlinks the slot
 * from the scheduling index but keeps it as the in-flight record, and the
 * completion event releases it. Nothing is copied or compacted in
 * between.
 */

#ifndef TEMPO_MC_MEMORY_CONTROLLER_HH
#define TEMPO_MC_MEMORY_CONTROLLER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "common/waiter_table.hh"
#include "dram/dram.hh"
#include "mc/bliss.hh"
#include "mc/request.hh"
#include "mc/scheduler.hh"
#include "mc/tx_queue.hh"
#include "stats/stats.hh"

namespace tempo {

/** Which scheduling policy the controller uses. */
enum class SchedKind : std::uint8_t { FrFcfs, Bliss };

/** The spelling of each SchedKind, in enum order. */
inline constexpr const char *kSchedNames[] = {"frfcfs", "bliss"};
static_assert(std::size(kSchedNames)
              == static_cast<std::size_t>(SchedKind::Bliss) + 1);

/** Memory controller configuration, including all TEMPO knobs. */
struct McConfig {
    SchedKind sched = SchedKind::FrFcfs;

    /** Master TEMPO switch: detect tagged PT requests and prefetch. */
    bool tempoEnabled = false;
    /** Also push the prefetched line into the LLC (vs row-buffer only). */
    bool tempoLlcFill = true;
    /** Anticipation delay: cycles a PT row stays open after an access in
     * case more PT requests to the same row arrive (Fig. 15; best 10). */
    Cycle tempoPtRowHold = 10;
    /** Grace period: cycles a prefetched row stays open so the replay can
     * row-hit (Fig. 16 right; best 15). */
    Cycle tempoGracePeriod = 15;
    /** Use the Sec. 4.3(b) PT-group / prefetch-group queue ordering. */
    bool tempoGrouping = true;
    /** Cycles the Prefetch Engine needs to extract the PPN and form the
     * prefetch address. */
    Cycle prefetchEngineDelay = 2;
    /** Prefetches are dropped when a channel's queue is deeper than this
     * (the paper's "pathological" case, Sec. 6.1). */
    std::size_t prefetchDropDepth = 48;

    SchedulerConfig scheduler;
};

/** Builds the scheduler for policy @p kind. The MemoryController
 * constructor takes one so that a test can run an oracle scheduler in
 * place of the production ones. */
using SchedulerFactory = std::unique_ptr<Scheduler> (*)(
    SchedKind kind, const SchedulerConfig &cfg);

/** The production SchedulerFactory: FrFcfsScheduler or BlissScheduler
 * over the indexed transaction queue. */
std::unique_ptr<Scheduler> makeScheduler(SchedKind kind,
                                         const SchedulerConfig &cfg);

/**
 * The controller proper. All timing flows through the shared EventQueue:
 * submit() enqueues a request, the channel kick loop dispatches one
 * transaction per tBurst, and completion callbacks fire in event order.
 */
class MemoryController
{
  public:
    MemoryController(EventQueue &eq, DramDevice &dram,
                     const McConfig &cfg,
                     SchedulerFactory make_scheduler = makeScheduler);

    /** Enqueue @p req now. The onComplete callback fires at completion. */
    void submit(MemRequest &&req);

    /** Waiter for prefetch-merge completion; a hot-path capture (see
     * hotCapture()) is stored inline. */
    using Waiter = InlineFunction<void(Cycle), kHotCaptureBytes>;

    /**
     * Hook invoked when a TEMPO prefetch's data arrives: the system
     * installs the line into the LLC here. Arguments: line paddr, app.
     */
    std::function<void(Addr, AppId)> onTempoPrefetchFill;

    /**
     * MSHR-style merge: if a TEMPO prefetch for @p line is currently in
     * flight, register @p waiter to be called at its completion time and
     * return true; the caller must then NOT issue a duplicate demand
     * request. Returns false when no such prefetch is pending.
     */
    bool mergeWithPendingPrefetch(Addr line, Waiter waiter);

    // --- Statistics ---
    std::uint64_t served(ReqKind kind) const;
    std::uint64_t tempoPrefetchesIssued() const { return pfIssued_; }
    std::uint64_t tempoPrefetchesDropped() const { return pfDropped_; }
    std::uint64_t tempoFaultSuppressed() const { return pfFaults_; }
    std::uint64_t rowHitsFor(ReqKind kind) const;
    double avgQueueDelay(ReqKind kind) const;
    std::size_t queueHighWater() const { return highWater_; }

    /** Current Tx-Q occupancy in slots across all channels, counting
     * tagged PT entries twice (the paper's two-slot encoding). O(1):
     * served from the queue's incrementally maintained counter. */
    std::size_t queueOccupancy() const;
    /** TEMPO prefetch-engine slots currently in use. For sampling. */
    std::size_t pendingPrefetchCount() const
    {
        return pendingPrefetch_.size();
    }

    void report(stats::Report &out) const;

    /** Clear served/row/delay counters (warmup support). */
    void resetStats();

    const McConfig &config() const { return cfg_; }

    /** The active scheduler (exposed for tests). */
    Scheduler &scheduler() { return *sched_; }

  private:
    struct Channel {
        Cycle busFreeAt = 0;
        bool kickPending = false;
    };

    /** Submit with the target's DRAM coordinates already decoded (the
     * prefetch engine decodes once for its drop check and reuses it). */
    void submitDecoded(MemRequest &&req, const DramCoord &coord);

    void kick(unsigned ch);
    void scheduleKick(unsigned ch, Cycle when);
    void dispatch(unsigned ch, std::uint32_t id);
    void completed(std::uint32_t slot, const DramResult &result);
    void firePrefetch(const QueuedRequest &pt_entry, Cycle when);

    EventQueue &eq_;
    DramDevice &dram_;
    McConfig cfg_;
    std::unique_ptr<Scheduler> sched_;
    TxQueue txq_;
    std::vector<Channel> channels_;
    std::uint64_t seq_ = 0;

    /** In-flight TEMPO prefetch lines -> replays waiting on them. */
    WaiterTable<Waiter> pendingPrefetch_;

    // Statistics, indexed by ReqKind.
    static constexpr std::size_t kKinds = 6;
    std::uint64_t servedCount_[kKinds] = {};
    std::uint64_t rowHitCount_[kKinds] = {};
    std::uint64_t rowMissCount_[kKinds] = {};
    std::uint64_t rowConflictCount_[kKinds] = {};
    double queueDelaySum_[kKinds] = {};
    std::uint64_t pfIssued_ = 0;
    std::uint64_t pfDropped_ = 0;
    std::uint64_t pfFaults_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace tempo

#endif // TEMPO_MC_MEMORY_CONTROLLER_HH
