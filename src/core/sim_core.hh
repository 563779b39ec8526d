/**
 * @file
 * One simulated core running one application: the reference state
 * machine that ties the TLB, MMU caches, page table walker, cache
 * hierarchy, IMP prefetcher, and memory controller together.
 *
 * Timing model: the core issues one memory reference per issueGap cycles
 * and keeps up to `window` references in flight (an ROB-style MLP
 * window). Each reference runs the paper's Figure 5 timeline:
 *
 *   TLB probe -> (miss) MMU-cache probe -> serial PTE fetches through
 *   the caches and DRAM (the leaf fetch TEMPO-tagged) -> TLB fill ->
 *   replay through the caches and DRAM.
 *
 * Runtime-attribution: each reference accumulates the DRAM portions of
 * its walk and replay; the Figure 1 runtime split reports each
 * category's share of total reference cycles.
 */

#ifndef TEMPO_CORE_SIM_CORE_HH
#define TEMPO_CORE_SIM_CORE_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/record_pool.hh"
#include "common/waiter_table.hh"
#include "core/machine.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"
#include "vm/address_space.hh"
#include "vm/mmu_cache.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"
#include "workloads/workload.hh"

namespace tempo {

namespace obs {
enum class WalkKind : std::uint8_t;
} // namespace obs

/**
 * Lifecycle taxonomy for one registry prefetch engine. Every issued
 * prefetch ends up in exactly one bucket:
 *
 *   useful  - a demand reference later hit the prefetched line while it
 *             was still resident;
 *   late    - a demand reference arrived while the prefetch fill was
 *             still in flight and merged with it (partial overlap);
 *   useless - issued but never referenced (computed at report time as
 *             issued - useful - late, so the three always sum back).
 *
 * `dropped` counts targets discarded before issue (in-flight cap or
 * metadata-port cap) and is disjoint from `issued`.
 */
struct PrefetchEngineStats {
    std::string name;
    std::uint64_t issued = 0;
    std::uint64_t useful = 0;
    std::uint64_t late = 0;
    std::uint64_t dropped = 0;
    std::uint64_t faults = 0; //!< chains dropped at unmapped pages
    std::uint64_t metadataFetches = 0; //!< off-chip metadata reads

    std::uint64_t
    useless() const
    {
        return issued - useful - late;
    }
};

/** Everything a run measures, per core. */
struct CoreStats {
    std::uint64_t refs = 0;
    std::uint64_t pageFaults = 0;

    // Page-table walk traffic.
    std::uint64_t walks = 0;
    std::uint64_t ptDramAccesses = 0;     //!< all PT fetches from DRAM
    std::uint64_t leafPtDramAccesses = 0; //!< ... that were leaf PTEs
    std::uint64_t walksWithLeafDram = 0;  //!< walks whose leaf hit DRAM
    std::uint64_t ptDramByLevel[5] = {};  //!< DRAM PT fetches per level
    std::uint64_t leafPtL1Hits = 0;       //!< leaf PTE found in L1D
    std::uint64_t leafPtL2Hits = 0;       //!< leaf PTE found in L2
    std::uint64_t leafPtLlcHits = 0;      //!< leaf PTE found in the LLC

    // Demand DRAM traffic.
    std::uint64_t replayDramAccesses = 0;  //!< replays that reached DRAM
    std::uint64_t regularDramAccesses = 0; //!< TLB-hit refs from DRAM

    // The paper's 98% observation and Fig. 11 breakdown: replays whose
    // walk needed DRAM, and where they were ultimately serviced.
    std::uint64_t replayAfterDramWalk = 0;
    std::uint64_t replayDramAfterDramWalk = 0;
    std::uint64_t replayLlcHits = 0;     //!< serviced by LLC (TEMPO fill)
    std::uint64_t replayPrivateHits = 0; //!< L1/L2 hit (rare)
    std::uint64_t replayMerged = 0;      //!< merged with in-flight prefetch
    std::uint64_t replayRowHits = 0;     //!< DRAM row-buffer hit
    std::uint64_t replayArray = 0;       //!< full DRAM array access

    // MSHR merges: references that piggybacked on an in-flight fill of
    // the same line instead of issuing a duplicate DRAM access.
    std::uint64_t ptMshrMerges = 0;
    std::uint64_t dataMshrMerges = 0;

    // IMP/stride prefetcher chains.
    std::uint64_t impIssued = 0;
    std::uint64_t strideIssued = 0;
    std::uint64_t impDroppedInflight = 0;
    std::uint64_t impFaults = 0; //!< prefetch walks that hit unmapped PTEs
    std::uint64_t tlbPrefetches = 0; //!< next-page TLB prefetch chains

    // Per-engine taxonomy, one slot per registry engine in dispatch
    // order (timing-neutral).
    std::vector<PrefetchEngineStats> prefetchEngines;

    // Runtime attribution (cycles summed over references).
    double cyclesPtwDram = 0;
    double cyclesReplayDram = 0;
    double cyclesOtherDram = 0;
    double cyclesTotal = 0;

    Cycle lastFinish = 0;

    void report(stats::Report &out) const;
};

class SimCore
{
  public:
    SimCore(Machine &machine, AppId app,
            std::unique_ptr<Workload> workload);

    /** Begin issuing; the machine's event queue drives everything. */
    void start(std::uint64_t num_refs);

    bool done() const { return completed_ >= target_ && target_ > 0; }
    Cycle finishTime() const { return stats_.lastFinish; }

    const CoreStats &stats() const { return stats_; }
    Workload &workload() { return *workload_; }
    AppId app() const { return app_; }

    // Per-core components, exposed for reporting and tests.
    Tlb tlb;
    MmuCache mmu;
    CacheHierarchy caches;
    AddressSpace addressSpace;
    Walker walker;

    /** Registry prefetch engines driving this core, in dispatch order
     * (prefetch/registry.hh resolves them from the config). */
    std::vector<const Prefetcher *> prefetchEngines() const;

    /** Invoked once when the last reference completes. */
    std::function<void()> onDone;

    /**
     * Warmup support: invoke @p callback once, when the @p after -th
     * reference completes (callers typically reset statistics there).
     * Must be set before start().
     */
    void setWarmupCallback(std::uint64_t after,
                           std::function<void()> callback);

    /** Clear this core's statistics (counters only; all architectural
     * state — TLB/cache/table contents — is preserved). */
    void resetStats();

    /** Demand page-table walks currently in flight (for sampling). */
    std::uint64_t outstandingWalks() const { return walksOutstanding_; }

  private:
    /**
     * One in-flight reference, from issue to finishRef(). The records
     * live in refs_, a slab that grows with the first window of
     * references and then holds the whole window; events and callbacks
     * name a record by its index.
     */
    struct RefRecord {
        MemRef ref;
        Addr paddr = kInvalidAddr;
        Cycle issueAt = 0;
        bool tlbMiss = false;
        bool walkLeafDram = false;
        double ptwDramCycles = 0;
        double replayDramCycles = 0;
        std::uint64_t walkId = 0; //!< observability walk id (0 = none)
    };

    /** One page walk in flight: a demand walk, the walk of a core
     * prefetch chain, or a next-page TLB prefetch. */
    struct WalkRecord {
        obs::WalkKind kind{};
        /** Demand: the reference's index. Core prefetch: the engine
         * slot. TLB prefetch: unused. */
        std::uint32_t owner = 0;
        Addr vaddr = 0; //!< the address being translated
        WalkPlan plan;
        std::size_t step = 0;   //!< index of the current fetch
        double dramCycles = 0;  //!< DRAM time of the fetches so far
        bool leafDram = false;  //!< the leaf fetch itself read DRAM
    };

    /** Issue references until the window is full. */
    void pump();
    void beginRef();
    /** Plan a walk of @p vaddr into a new walk record. */
    std::uint32_t newWalk(obs::WalkKind kind, std::uint32_t owner,
                          Addr vaddr);
    /** Run walk @p w's current PTE fetch through the caches, then on
     * to the next fetch, an MSHR merge, or DRAM. */
    void walkStep(std::uint32_t w);
    /** Move walk @p w on to its next fetch. */
    void walkNext(std::uint32_t w);
    /** Send walk @p w's current fetch to the memory controller. */
    void submitPtFetch(std::uint32_t w);
    /** Walk @p w's DRAM fetch, submitted at @p submit_at, completed at
     * @p complete. */
    void ptFetchDone(std::uint32_t w, Cycle submit_at, Cycle complete);
    /** Every fetch of walk @p w is done: fill the TLB and hand over to
     * the walk's owner, by kind. */
    void walkDone(std::uint32_t w);
    void dataAccess(std::uint32_t r);
    /** Miss handling once the LLC lookup completes: late-prefetch hit
     * detection, MSHR merge, or a real memory-controller request. */
    void memoryAccess(std::uint32_t r);
    void finishRef(std::uint32_t r);

    /** Run every engine's observe+drain on @p ref and dispatch the
     * resulting actions (the registry replacement for the hard-wired
     * maybeImpPrefetch/maybeStridePrefetch pair). */
    void runPrefetchers(const MemRef &ref);
    /** Dispatch engine @p idx's actions from actionScratch_: data
     * prefetches launch chains under the in-flight cap (legacy
     * semantics: one impDroppedInflight per capped batch), metadata
     * actions become uncached DRAM reads. */
    void dispatchActions(std::size_t idx);
    /** Model one off-chip metadata read for engine @p idx (MISB):
     * an uncached DRAM access that never touches the caches. */
    void metadataFetch(std::size_t idx, Addr addr);
    /** Launch a core-prefetcher chain for engine @p idx: translate the
     * target (possibly walking, without demand paging) and fetch its
     * line into the caches. */
    void prefetchChain(Addr target, std::size_t idx);
    void impData(Addr paddr, std::size_t idx);

    // Prefetch-usefulness classification. All four are pure counter
    // bookkeeping — no events, no cache mutations — so legacy-config
    // timing is untouched.
    /** A prefetch fill completed: remember the line as resident. */
    void notePrefetchFill(Addr line);
    /** A demand reference hit @p line in the caches. */
    void classifyDemandHit(Addr line);
    /** A demand reference merged with an in-flight fill of @p line. */
    void classifyDemandMerge(Addr line);
    /** A demand reference missed all caches for @p line: any resident
     * record for it is stale (the line was evicted since). */
    void classifyDemandMiss(Addr line);
    /** Extension: prefetch the next page's translation into the TLB. */
    void maybeTlbPrefetch(Addr vaddr, PageSize size);

    /** MSHR waiter, run with the fill's completion cycle. */
    using MshrWaiter = InlineFunction<void(Cycle), kHotCaptureBytes>;

    Machine &machine_;
    const SystemConfig &cfg_;
    AppId app_;
    std::unique_ptr<Workload> workload_;

    std::uint64_t target_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    unsigned inflight_ = 0;
    unsigned window_ = 8;
    Cycle nextIssueAt_ = 0;
    unsigned impInflight_ = 0;
    unsigned metadataInflight_ = 0;

    RecordPool<RefRecord> refs_;   //!< in-flight references
    RecordPool<WalkRecord> walks_; //!< in-flight page walks
    /** Outstanding line fills -> waiters (miss-status holding regs). */
    WaiterTable<MshrWaiter> mshr_;

    /** One slot per registry engine, in dispatch order. */
    struct EngineSlot {
        std::unique_ptr<Prefetcher> engine;
        bool isImp = false;    //!< feeds the legacy impIssued counter
        bool isStride = false; //!< feeds the legacy strideIssued counter
    };
    std::vector<EngineSlot> engines_;

    /** Prefetch fills in flight: line -> issuing engine slot. */
    std::unordered_map<Addr, std::size_t> pendingPf_;
    /** Direct-mapped record of resident prefetched lines (usefulness
     * tracking only; the caches remain the source of truth). */
    struct ResidentPf {
        Addr tag = kInvalidAddr;
        std::size_t engine = 0;
    };
    std::vector<ResidentPf> pfResident_;

    std::vector<PrefetchAction> actionScratch_; //!< observe/drain out

    std::uint64_t warmupAfter_ = 0;
    std::function<void()> warmupCallback_;
    std::uint64_t walksOutstanding_ = 0;

    CoreStats stats_;
};

} // namespace tempo

#endif // TEMPO_CORE_SIM_CORE_HH
