/**
 * @file
 * Memoized translation fast path: a flat last-translation slot plus a
 * direct-mapped VPN-indexed software cache in front of the functional
 * PageTable lookups, in the spirit of HartModels'
 * CacheWrappedTranslator/BranchFreeTranslator.
 *
 * Every reference resolves its translation functionally (TLB-hit
 * physical address, replay classification) by probing the
 * AddressSpace/PageTable maps; at steady state the answer almost never
 * changes, so the radix descent and hashing dominate the translation
 * front end's self time. The Translator memoizes:
 *
 *  - translate(): the leaf Translation per 4KB VPN, packed into a
 *    24-byte slot and fronted by a flat "last translation" slot that
 *    covers same-page streaks of any page size with one compare;
 *  - the AddressSpace touch() "already counted" bit, so the per-access
 *    demand-paging check skips its hash probe.
 *
 * Structural walks are not memoized: the TLB filters out nearly all
 * reuse before the walker, so the walker reads PageTable::walkInto()
 * directly.
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
 *    results (invalid translations) — a later map cannot be masked by
 *    a stale negative entry;
 *  - invalidateAll() bumps the local generation for callers that want
 *    an explicit flush (context switch, tests).
 *
 * The timing model never sees this layer: TLB fills and all statistics
 * are identical at any memo size. There is no unmemoized mode: the
 * PageTable itself is the oracle, and tests/translator_test.cpp checks
 * the memo against PageTable::translate() on every operation.
 *
 * The memo table is allocated by the first refill, so building a
 * machine allocates none of it: until then lookups index a one-slot
 * sentinel table (mask 0) whose stamp 0 never matches a live stamp,
 * and the hit path needs no "allocated yet?" test.
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

  private:
    /** A memoized valid translation. The frame is page-aligned, so
     * its low 12 bits carry the rest: touched (bit 0), writable
     * (bit 1) and the page size (bits 2-3). */
    struct Slot {
        Addr tag = kInvalidAddr;      //!< 4KB VPN, kInvalidAddr = empty
        std::uint64_t stamp = 0;
        std::uint64_t word = 0;       //!< pframe | size | writable | touched
    };
    static_assert(sizeof(Slot) == 24, "a memo slot is 24 bytes");

    static constexpr std::uint64_t kTouched = 1;
    static constexpr std::uint64_t kWritable = 2;
    static constexpr unsigned kSizeShift = 2;
    static constexpr std::uint64_t kFlagMask = 0xfff;

    static std::uint64_t pack(const Translation &xlate);
    static Translation unpack(std::uint64_t word);

    /** Flat last-translation slot: one compare covers the whole page,
     * so 2MB/1GB streaks hit without even indexing the memo. It keeps
     * the packed word too: a hit builds its Translation straight into
     * the return value, with no copy through a temporary. */
    struct LastSlot {
        Addr base = kInvalidAddr;     //!< page-aligned vaddr base
        Addr pageMask = 0;            //!< ~(pageBytes - 1)
        std::uint64_t stamp = 0;
        std::uint64_t word = 0;       //!< as in Slot
    };

    /** Slot validity stamp: mutation epoch + local generation. Both
     * are monotone, so a stale slot's stamp can never reappear. */
    std::uint64_t
    currentStamp() const
    {
        return table_.mutationEpoch() + gen_;
    }

    Slot &slotFor(Addr vpn) { return slots_[vpn & slotMask_]; }
    void refillLast(Addr vaddr, std::uint64_t word, std::uint64_t stamp);
    Translation translateMiss(Addr vaddr, std::uint64_t stamp);
    /** Replace the sentinel with the configured table, once. */
    void allocateTable();

    const PageTable &table_;
    TranslatorConfig cfg_;
    std::uint64_t gen_ = 1;

    LastSlot last_;
    Slot noSlot_;                 //!< sentinel: stamp 0, never hits
    Slot *slots_ = &noSlot_;
    Addr slotMask_ = 0;
    std::vector<Slot> memo_;      //!< empty until the first refill

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_TRANSLATOR_HH
