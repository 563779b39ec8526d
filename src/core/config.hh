/**
 * @file
 * Top-level system configuration: every knob of every substrate, plus
 * named presets. The default preset is a scaled-down Skylake-class
 * big-memory server (see DESIGN.md Sec. 2 for the scaling rationale:
 * footprint/TLB-reach and PTE-working-set/LLC ratios match the paper's
 * 4TB regime, absolute sizes do not).
 */

#ifndef TEMPO_CORE_CONFIG_HH
#define TEMPO_CORE_CONFIG_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "dram/config.hh"
#include "mc/memory_controller.hh"
#include "prefetch/imp.hh"
#include "prefetch/misb.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/stride.hh"
#include "prefetch/temporal.hh"
#include "prefetch/tskid.hh"
#include "vm/address_space.hh"
#include "vm/mmu_cache.hh"
#include "vm/os_memory.hh"
#include "vm/tlb.hh"
#include "vm/translator.hh"

namespace tempo {

/** Energy model parameters (relative units; ratios drive the results). */
struct EnergyConfig {
    /** Static power of the cores + uncore, per cycle. Runtime reduction
     * saves this — the paper's dominant energy mechanism (Sec. 6.1). */
    double corePowerPerCycle = 0.25;
    /** Memory-controller dynamic energy per serviced request. */
    double mcEnergyPerRequest = 0.1;
    /** TEMPO hardware adders from the paper's synthesis (Sec. 4.1). */
    double tempoMcAreaOverhead = 0.03;   //!< +3% memory controller
    double tempoWalkerAreaOverhead = 0.005; //!< +0.5% page table walker
};

struct SystemConfig {
    TlbConfig tlb;
    MmuCacheConfig mmu;
    CacheHierarchyConfig caches;
    DramConfig dram;
    McConfig mc;
    OsMemoryConfig os;
    AddressSpaceConfig vm;
    /** Memoized translation fast path (vm/translator.hh). Its memo
     * sizes are stats-neutral by construction, so they stay out of
     * digest(). */
    TranslatorConfig translator;
    /** Tag-array implementation selection (cache/tag_array.hh) for
     * every SetAssocCache and TLB/MMU-cache array, settable only from
     * code. Both paths produce identical hit/miss/victim sequences, so
     * this too is stats-neutral and stays out of digest(). */
    CacheConfig cache;
    ImpConfig imp;
    StrideConfig stride;
    /** The core prefetchers, by name, in dispatch order
     * (prefetch/registry.hh); the only engine selector. */
    PrefetchConfig prefetch;
    TskidConfig tskid;
    MisbConfig misb;
    TemporalConfig temporal;
    EnergyConfig energy;

    /** Outstanding memory references the core overlaps (ROB-window
     * proxy). Workloads may override via their mlpHint. */
    unsigned mlpWindow = 8;
    /** Honor each workload's mlpHint() instead of mlpWindow. */
    bool useWorkloadMlpHint = true;
    /** Core cycles between successive reference issues (models the
     * non-memory instructions between memory instructions). */
    Cycle issueGap = 4;
    /** Latency from walk completion to the replay re-probing the caches
     * (TLB fill + pipeline replay). Together with the L1/L2 lookups this
     * forms the paper's ~120-cycle slack window (Sec. 3) in which the
     * TEMPO prefetch must land. */
    Cycle tlbFillLatency = 100;
    /** Cost charged for a minor page fault (0: steady-state traces). */
    Cycle pageFaultLatency = 0;
    /** Maximum concurrent IMP/stride prefetch chains in flight. */
    unsigned impMaxInflight = 48;
    /** Extension (not in the paper): after a demand walk, prefetch the
     * translation of the next virtual page into the TLB. */
    bool tlbPrefetchNext = false;

    std::uint64_t seed = 42;

    /**
     * The baseline machine used throughout the evaluation: FR-FCFS with
     * an adaptive row policy and a single 8KB row buffer (paper Sec. 6
     * opening), TEMPO off.
     */
    static SystemConfig skylakeScaled();

    /**
     * A stable fingerprint of every configuration knob: two configs
     * compare equal iff (modulo hash collisions) they digest equally,
     * across processes and runs of the same build. Keys sweep
     * checkpoints (core/checkpoint.hh) and failure reports.
     */
    std::uint64_t digest() const;

    /** Fluent helpers for the benches. */
    SystemConfig &withTempo(bool on);
    SystemConfig &withSched(SchedKind kind);
    /** Select registry engines by name ("" or "none" = no engines). */
    SystemConfig &withPrefetchers(const std::string &csv);
    SystemConfig &withSeed(std::uint64_t seed);
    /** Stub for the frozen perf ledger: 0 is a no-op, else throws. */
    SystemConfig &withShards(unsigned shards);
};

} // namespace tempo

#endif // TEMPO_CORE_CONFIG_HH
