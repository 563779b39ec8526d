/**
 * @file
 * Memoized translation fast path: a flat last-translation slot plus
 * direct-mapped VPN-indexed software caches in front of the functional
 * PageTable lookups, in the spirit of HartModels'
 * CacheWrappedTranslator/BranchFreeTranslator.
 *
 * Every reference resolves its translation functionally (TLB-hit
 * physical address, walk planning, replay classification) by probing
 * the AddressSpace/PageTable maps; at steady state the answer almost
 * never changes, so the radix descent and hashing dominate the
 * translation front end's self time. The Translator memoizes:
 *
 *  - translate(): the leaf Translation per 4KB VPN, fronted by a flat
 *    "last translation" slot that covers same-page streaks of any page
 *    size with one compare;
 *  - walk(): the full structural walk (PTE fetch sequence + outcome)
 *    per 4KB VPN, in fixed-size slots so the hit path never allocates;
 *  - the AddressSpace touch() "already counted" bit, so the per-access
 *    demand-paging check skips its hash probe.
 *
 * The hit path is branch-free in spirit: tag and validity compares are
 * combined with non-short-circuit `&` into a single predictable branch
 * to the refill path.
 *
 * Invalidation protocol — the memo can never serve a stale PTE:
 *
 *  - every slot is stamped with PageTable::mutationEpoch() + a local
 *    generation at fill time; a lookup only hits when the stamp equals
 *    the current value, so any unmap/remap/protect/promote (which bump
 *    the epoch) bulk-invalidates every slot in O(1);
 *  - map() of a previously non-present range does not bump the epoch,
 *    and correspondingly the Translator NEVER memoizes negative
 *    results (invalid translations or faulting walks) — a later map
 *    cannot be masked by a stale negative entry;
 *  - invalidateAll() bumps the local generation for callers that want
 *    an explicit flush (context switch, tests).
 *
 * The timing model never sees this layer: MMU-cache probes, TLB fills,
 * walker fetch plans and all statistics are identical at any memo
 * size. There is no unmemoized mode: the PageTable itself is the
 * oracle, and tests/translator_test.cpp checks the memo against
 * PageTable::translate()/walkInto() on every operation.
 *
 * The memo tables are allocated by the first refill, so building a
 * machine allocates none of them: until then both lookups index a
 * one-slot sentinel table (mask 0) whose stamp 0 never matches a live
 * stamp, and the hit path needs no "allocated yet?" test.
 */

#ifndef TEMPO_VM_TRANSLATOR_HH
#define TEMPO_VM_TRANSLATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "vm/page_table.hh"

namespace tempo {

struct TranslatorConfig {
    /** Direct-mapped translation memo slots (power of two). Sized to
     * keep the memo's host-cache footprint modest: bigger tables raise
     * the hit rate a little but evict the simulator's own hot state. */
    unsigned memoSlots = 1u << 13;
    /** Direct-mapped structural-walk memo slots (power of two). The
     * TLB filters most reuse before the walker, so walk hits are rare;
     * the table stays small and the miss path (vector-free walkInto
     * refill) carries the weight. */
    unsigned walkSlots = 1u << 10;
};

/** A memoized structural walk: PageTable::walkInto()'s steps and
 * outcome. */
struct CachedWalk {
    Translation xlate;
    int count = 0;                //!< valid prefix of steps[]
    WalkStep steps[4] = {};       //!< top level first, leaf (or first
                                  //!< non-present entry) last
};

class Translator
{
  public:
    explicit Translator(const PageTable &table,
                        const TranslatorConfig &cfg = {});

    Translator(const Translator &) = delete;
    Translator &operator=(const Translator &) = delete;

    /** Why @p cfg cannot build a Translator, or "" when it can. The
     * constructor asserts this; config loading reports it as an input
     * error. */
    static std::string configError(const TranslatorConfig &cfg);

    /** Functional translation for @p vaddr, memoized. Exactly equal to
     * PageTable::translate() at every instant. */
    Translation translate(Addr vaddr);

    /**
     * Structural walk for @p vaddr, memoized. Exactly equal to
     * PageTable::walkInto() at every instant. The reference stays valid
     * until the next walk() call on this translator (a miss refills
     * through a scratch slot).
     */
    const CachedWalk &walk(Addr vaddr);

    /**
     * Fast path for AddressSpace::touch(): true iff the 4KB granule of
     * @p vaddr has a live memo entry whose touched bit is set — i.e.
     * the granule was already demand-paged and counted. False means
     * "consult the slow path", never "not touched".
     */
    bool touchedFast(Addr vaddr);

    /** Record that the granule of @p vaddr is mapped and counted: fill
     * the memo slot and set its touched bit. */
    void noteTouched(Addr vaddr);

    /** Explicit bulk flush of every memo slot, O(1). */
    void invalidateAll();

    const PageTable &table() const { return table_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t walkHits() const { return walkHits_; }
    std::uint64_t walkMisses() const { return walkMisses_; }

  private:
    struct Slot {
        Addr tag = kInvalidAddr;      //!< 4KB VPN, kInvalidAddr = empty
        std::uint64_t stamp = 0;
        std::uint8_t touched = 0;
        Translation xlate;
    };
    struct WalkSlot {
        Addr tag = kInvalidAddr;
        std::uint64_t stamp = 0;
        CachedWalk walk;
    };
    /** Flat last-translation slot: one compare covers the whole page,
     * so 2MB/1GB streaks hit without even indexing the memo. */
    struct LastSlot {
        Addr base = kInvalidAddr;     //!< page-aligned vaddr base
        Addr pageMask = 0;            //!< ~(pageBytes - 1)
        std::uint64_t stamp = 0;
        Translation xlate;
    };

    /** Slot validity stamp: mutation epoch + local generation. Both
     * are monotone, so a stale slot's stamp can never reappear. */
    std::uint64_t
    currentStamp() const
    {
        return table_.mutationEpoch() + gen_;
    }

    Slot &slotFor(Addr vpn) { return slots_[vpn & slotMask_]; }
    void refillLast(Addr vaddr, const Translation &xlate,
                    std::uint64_t stamp);
    Translation translateMiss(Addr vaddr, std::uint64_t stamp);
    /** Replace the sentinels with the configured tables, once. */
    void allocateTables();

    const PageTable &table_;
    TranslatorConfig cfg_;
    std::uint64_t gen_ = 1;

    LastSlot last_;
    Slot noSlot_;                 //!< sentinels: stamp 0, never hit
    WalkSlot noWalkSlot_;
    Slot *slots_ = &noSlot_;
    WalkSlot *wslots_ = &noWalkSlot_;
    Addr slotMask_ = 0;
    Addr wslotMask_ = 0;
    std::vector<Slot> memo_;      //!< empty until the first refill
    std::vector<WalkSlot> walkMemo_;
    CachedWalk scratch_;          //!< walk() miss refill; returned
                                  //!< as is for faulting walks

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t walkHits_ = 0;
    std::uint64_t walkMisses_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_TRANSLATOR_HH
