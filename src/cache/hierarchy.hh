/**
 * @file
 * A three-level cache hierarchy: private L1D and L2 per core, shared LLC.
 *
 * Lookups are structural (tag arrays) with additive lookup latencies; the
 * caller turns a miss into a memory-controller request. Fill installs the
 * line at every level (inclusive hierarchy). The LLC exposes a prefetch
 * fill port for TEMPO (paper Sec. 3: prefetched lines land in the LLC
 * only, so they cannot pollute the small private levels).
 */

#ifndef TEMPO_CACHE_HIERARCHY_HH
#define TEMPO_CACHE_HIERARCHY_HH

#include <memory>

#include "cache/set_assoc.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace tempo {

/** Geometry and latency of one cache level. */
struct CacheLevelConfig {
    Addr sizeBytes;
    unsigned assoc;
    Cycle latency; //!< lookup latency of this level
};

/** Configuration of a core's view of the hierarchy. */
struct CacheHierarchyConfig {
    CacheLevelConfig l1{32 * 1024, 8, 4};
    CacheLevelConfig l2{128 * 1024, 8, 14};
    CacheLevelConfig llc{512 * 1024, 16, 42};
};

/** Where an access was satisfied. */
enum class CacheLevel : std::uint8_t { L1, L2, LLC, Memory };

/** Outcome of a hierarchy access. */
struct CacheOutcome {
    CacheLevel level;   //!< where the line was found (Memory = miss)
    Cycle latency;      //!< cycles to reach that answer (sequential)
};

/** The shared last-level cache, used by one or many cores. */
class SharedLlc
{
  public:
    explicit SharedLlc(const CacheLevelConfig &cfg,
                       const CacheConfig &impl = {});

    SetAssocCache &cache() { return cache_; }
    const SetAssocCache &cache() const { return cache_; }
    Cycle latency() const { return latency_; }

    /** TEMPO prefetch fill port: install without a demand access.
     * @return the dirty victim line that must be written back, or
     *         kInvalidAddr. */
    Addr prefetchFill(Addr addr);

    std::uint64_t prefetchFills() const { return prefetchFills_; }

    /** Clear counters, keeping contents (warmup support). */
    void
    resetStats()
    {
        cache_.resetStats();
        prefetchFills_ = 0;
    }

  private:
    SetAssocCache cache_;
    Cycle latency_;
    std::uint64_t prefetchFills_ = 0;
};

/**
 * One core's cache path (private L1/L2 plus a reference to the shared
 * LLC). Data and page-table lines share these arrays, as on real x86.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheHierarchyConfig &cfg, SharedLlc *llc,
                   const CacheConfig &impl = {});

    /**
     * Demand access. Walks L1 -> L2 -> LLC; on a full miss the returned
     * latency covers all three lookups and the caller goes to memory.
     * Does NOT fill — call fill() when the memory response arrives.
     * Writes mark the line dirty at the hit level (and in the LLC, so
     * the writeback surfaces wherever the line finally leaves chip).
     */
    CacheOutcome access(Addr addr, bool is_write = false);

    /**
     * Install the line at all levels (inclusive fill on miss return).
     * @return a dirty LLC victim that must be written back to memory,
     *         or kInvalidAddr.
     */
    Addr fill(Addr addr, bool is_write = false);

    /** Install into the private levels only (used for L1 prefetchers'
     * fills and MSHR-merged responses). */
    void fillPrivate(Addr addr);

    /** Dirty L1/L2 victims whose line was no longer in the LLC (the
     * writeback is dropped by the model; see DESIGN.md). */
    std::uint64_t droppedWritebacks() const
    {
        return droppedWritebacks_;
    }

    SetAssocCache &l1() { return l1_; }
    SetAssocCache &l2() { return l2_; }
    SharedLlc &llc() { return *llc_; }

    void report(stats::Report &out) const;

    /** Clear private-level counters, keeping contents. Does NOT touch
     * the shared LLC (other cores may still be measuring). */
    void
    resetStats()
    {
        l1_.resetStats();
        l2_.resetStats();
    }

  private:
    /** Propagate a victim evicted from a private level: dirty lines
     * mark their LLC copy dirty so the eventual LLC eviction writes
     * back. */
    void propagateVictim(const SetAssocCache::Victim &victim);

    CacheHierarchyConfig cfg_;
    SetAssocCache l1_;
    SetAssocCache l2_;
    SharedLlc *llc_;
    std::uint64_t droppedWritebacks_ = 0;
};

} // namespace tempo

#endif // TEMPO_CACHE_HIERARCHY_HH
