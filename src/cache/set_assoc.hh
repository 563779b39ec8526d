/**
 * @file
 * A set-associative cache of 64-byte line tags with true-LRU replacement.
 *
 * The simulator only needs hit/miss behaviour and victim selection — data
 * contents are never materialized. Timing is the caller's business.
 *
 * Two implementations share this interface (cache/tag_array.hh): the
 * packed tag-array fast path and a linear scan. The geometry picks one
 * per instance — the scan serves more than TagArray::kMaxWays ways —
 * and code (never a user) can force the scan with
 * CacheConfig::useReferenceCache to use it as a differential-testing
 * oracle. Hit/miss/victim sequences are identical by construction;
 * only the lookup cost differs.
 */

#ifndef TEMPO_CACHE_SET_ASSOC_HH
#define TEMPO_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/tag_array.hh"
#include "common/types.hh"

namespace tempo {

class SetAssocCache
{
  public:
    /**
     * @param size_bytes total capacity (power of two)
     * @param assoc ways per set
     * @param impl packed vs reference selection (geometry the packed
     *        path cannot encode — more than TagArray::kMaxWays ways —
     *        falls back to the reference path automatically)
     */
    SetAssocCache(Addr size_bytes, unsigned assoc,
                  const CacheConfig &impl = {});

    /** Why @p size_bytes and @p assoc cannot form a cache, or "" when
     * they can. The constructor asserts this; config loading reports
     * it as an input error. */
    static std::string geometryError(Addr size_bytes, unsigned assoc);

    /** Outcome of insertTracked(): the evicted victim, if any. */
    struct Victim {
        Addr addr = kInvalidAddr;
        bool dirty = false;
    };

    /** Look up the line holding @p addr; promotes to MRU on hit. */
    bool lookup(Addr addr);

    /** Mark the line holding @p addr dirty; returns false if absent. */
    bool markDirty(Addr addr);

    /** Is the line present and dirty? (no LRU update) */
    bool isDirty(Addr addr) const;

    /** Non-destructive presence probe (no LRU update). */
    bool contains(Addr addr) const;

    /**
     * Install the line holding @p addr.
     * @return the evicted line address, or kInvalidAddr if none.
     */
    Addr insert(Addr addr);

    /** Install with dirtiness tracking: returns the victim (address
     * kInvalidAddr if none) and whether it was dirty. */
    Victim insertTracked(Addr addr, bool dirty);

    /**
     * Remove the line holding @p addr if present.
     * @return true iff the line was present AND dirty — i.e. its
     *         writeback is being dropped and the caller must issue it
     *         (or consciously discard it).
     */
    bool invalidate(Addr addr);

    /** Drop all contents. */
    void reset();

    /** Clear hit/miss counters, keeping contents (warmup support). */
    void resetStats();

    Addr sizeBytes() const { return sizeBytes_; }
    unsigned assoc() const { return assoc_; }
    unsigned numSets() const { return numSets_; }
    bool usingReference() const { return useRef_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_)
                / static_cast<double>(total)
                     : 0.0;
    }

  private:
    /** Reference-path line state (array-of-structs, true LRU via a
     * global tick counter); unused on the packed path. */
    struct Line {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    bool refLookup(Addr addr);
    bool refMarkDirty(Addr addr);
    bool refIsDirty(Addr addr) const;
    bool refContains(Addr addr) const;
    Victim refInsertTracked(Addr addr, bool dirty);
    bool refInvalidate(Addr addr);

    Addr sizeBytes_;
    unsigned assoc_;
    unsigned numSets_;
    unsigned setShift_ = 0; //!< log2(numSets_)
    bool useRef_ = false;

    TagArray tags_;           //!< packed path
    std::vector<Line> lines_; //!< reference path
    std::uint64_t tick_ = 0;  //!< reference path LRU clock

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tempo

#endif // TEMPO_CACHE_SET_ASSOC_HH
