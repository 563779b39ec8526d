/**
 * @file
 * Transaction-queue scheduling policies.
 *
 * FrFcfsScheduler implements classic FR-FCFS (Rixner et al., ISCA 2000):
 * among queued requests prefer row-buffer hits, break ties by age, with a
 * starvation age cap. When TEMPO grouping is enabled it additionally
 * implements the paper's Sec. 4.3(b) ordering: queued page-table requests
 * are drained first, grouped by DRAM row, then TEMPO prefetches grouped by
 * row, then everything else.
 *
 * Both policies pick incrementally from the indexed TxQueue: they score
 * only the candidate heads the index exposes (O(banks) of them) rather
 * than rescanning every queued request. The original flat scans live
 * on with the tests (tests/oracles/reference_scheduler.hh) as the
 * differential-testing oracle; the simulator never runs them.
 *
 * BlissScheduler (see bliss.hh) layers application blacklisting on top.
 */

#ifndef TEMPO_MC_SCHEDULER_HH
#define TEMPO_MC_SCHEDULER_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram.hh"
#include "mc/request.hh"
#include "mc/tx_queue.hh"

namespace tempo {

/** Scheduler tuning knobs shared by all policies. */
struct SchedulerConfig {
    /** Requests older than this always win (starvation guard). */
    Cycle starvationLimit = 4000;
    /** Enable the paper's PT-group-first / prefetch-group-next order. */
    bool tempoGrouping = false;

    // --- BLISS (Subramanian et al., ICCD 2014) ---
    unsigned blissThreshold = 8;      //!< blacklist at this count
    Cycle blissClearInterval = 10000; //!< clear blacklist this often
    unsigned blissNormalWeight = 2;   //!< counter weight, demand
    unsigned blissPrefetchWeight = 1; //!< counter weight, prefetch
    /** Serve a PT access' prefetch before switching app streams. */
    bool blissTempoAffinity = false;
};

/**
 * Scheduling order key, widest priority first: higher klass wins, and
 * within a klass the smaller (older) seq wins. Replaces the old packed
 * `klass << 32 | (~seq & 0xffffffff)` encoding, whose age bonus wrapped
 * after 2^32 submissions and made new requests look oldest; here the
 * class compares above a full-width 64-bit age key. BLISS folds its
 * not-blacklisted bit into klass above every base class.
 */
struct SchedKey {
    std::uint64_t klass = 0;
    std::uint64_t seq = 0;

    /** The key as one 128-bit word — klass above a full-width ~seq —
     * so the hot argmax loop compares branch-free and can carry the
     * incumbent in packed form. Inverting all 64 seq bits is safe
     * where the old 32-bit `~seq & 0xffffffff` was not: it cannot
     * wrap into the klass field. Packed zero loses to every real key
     * (real klass is >= 1: the lowest base class is 2 and the
     * busy-bank step subtracts at most 1), so 0 is the no-candidate
     * sentinel. */
    unsigned __int128
    packed() const
    {
        return (static_cast<unsigned __int128>(klass) << 64) | ~seq;
    }

    friend bool
    operator>(const SchedKey &a, const SchedKey &b)
    {
        return a.packed() > b.packed();
    }
};

/**
 * Scheduling policy interface: given one channel of the indexed
 * transaction queue, pick the slot id to serve next.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Pick the next request of channel @p ch; the channel is
     * non-empty. Returns a TxQueue slot id. */
    virtual std::uint32_t pick(const TxQueue &txq, unsigned ch,
                               const DramDevice &dram, Cycle now) = 0;

    /** Informed after the chosen request is dispatched. */
    virtual void served(const QueuedRequest &entry, Cycle now);
};

/** FR-FCFS, optionally with TEMPO's PT/prefetch row grouping. */
class FrFcfsScheduler : public Scheduler
{
  public:
    explicit FrFcfsScheduler(const SchedulerConfig &cfg);

    std::uint32_t pick(const TxQueue &txq, unsigned ch,
                       const DramDevice &dram, Cycle now) override;

  protected:
    /**
     * Score one candidate: the shared base ordering used by the indexed
     * and reference paths, and extended by BLISS. Defined inline so
     * every pick loop — including subclasses in other translation
     * units — can fold it into the candidate walk (it runs once per
     * candidate, and an out-of-line call here costs a measurable
     * fraction of an incremental pick).
     */
    SchedKey
    scoreKey(const QueuedRequest &entry, bool row_hit, bool bank_ready,
             Cycle now) const
    {
        // Priority classes, highest first; within a class, older
        // (smaller seq) requests win (SchedKey's full-width age
        // comparison). Kept branch-free on the request kind: the kind
        // mix is effectively random, so a compare ladder mispredicts
        // once per candidate and dominates an incremental pick.
        std::uint64_t klass;
        if (cfg_.tempoGrouping) {
            // Paper Sec. 4.3(b): PT accesses first (same-row groups form
            // naturally because row-hitting PT accesses outrank the
            // rest, base 6 + row_hit = 7), then TEMPO prefetches grouped
            // by row (4/5 — prefetch timeliness beats ordinary row
            // hits), then ordinary FR-FCFS (2/3).
            static constexpr std::uint64_t kBase[] = {
                2, // Regular
                2, // Replay
                6, // PtWalk
                4, // TempoPrefetch
                2, // ImpPrefetch
                2, // Writeback
            };
            klass = kBase[static_cast<std::size_t>(entry.req.kind)]
                + (row_hit ? 1 : 0);
        } else {
            klass = row_hit ? 4 : 2;
        }

        // Requests to busy banks lose one class step: serving them
        // stalls the pipeline for no benefit while a ready bank waits.
        // Every base class is >= 2, so the step never underflows.
        klass -= bank_ready ? 0 : 1;

        // Starvation guard dominates everything.
        if (now - entry.arrival > cfg_.starvationLimit)
            klass = 15;

        return SchedKey{klass, entry.seq};
    }

    SchedulerConfig cfg_;
};

} // namespace tempo

#endif // TEMPO_MC_SCHEDULER_HH
