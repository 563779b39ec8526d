/**
 * @file
 * An x86-64-style 4-level radix page table materialized in *simulated*
 * physical memory: every table node occupies a real 4KB frame obtained
 * from the OS model, so page-table walker references have physical
 * addresses that hit real DRAM rows and real cache sets — the property
 * TEMPO's whole mechanism rests on.
 *
 * Levels are numbered as in the paper: L4 is the root (CR3 points at it),
 * L1 is the leaf for 4KB pages. 2MB pages terminate at L2; 1GB at L3.
 */

#ifndef TEMPO_VM_PAGE_TABLE_HH
#define TEMPO_VM_PAGE_TABLE_HH

#include <cstdint>

#include "common/flat_table.hh"
#include "common/types.hh"
#include "vm/os_memory.hh"

namespace tempo {

/** One page-table fetch the hardware walker must perform. */
struct WalkStep {
    int level;     //!< 4 (root) down to the leaf level
    Addr pteAddr;  //!< physical address of the 8-byte PTE
};

/** Result of translating a virtual address. */
struct Translation {
    bool valid = false;
    bool writable = true;       //!< permission bit carried by the PTE
    Addr pframe = kInvalidAddr; //!< physical frame base
    PageSize size = PageSize::Page4K;

    /** Physical address corresponding to @p vaddr under this mapping. */
    Addr
    physAddr(Addr vaddr) const
    {
        return pframe + (vaddr & (pageBytes(size) - 1));
    }
};

/**
 * The table's host storage is one FlatAddrTable of 8-byte PTE words
 * keyed by each PTE's simulated physical address (node frame base +
 * index * kPteBytes — the address the walker fetches). A word holds the
 * 4KB-aligned target, a leaf's frame or a child node's base, with the
 * present, leaf, writable and page-size flags in its low 12 bits.
 * Nothing is erased: an unmapped or reclaimed entry only loses its
 * present bit, and a reclaimed node's frame is never reused, so its
 * stale words are unreachable.
 */
class PageTable
{
  public:
    explicit PageTable(OsMemory &os);

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a mapping for the page containing @p vaddr.
     * @p pframe must be aligned to the page size. Intermediate nodes are
     * created (and given physical frames) on demand. A superpage map
     * over page-table structure whose leaves were all unmapped reclaims
     * the empty subtree, as a real OS reuses freed PT pages; mapping
     * over any *live* translation is still a hard error.
     *
     * map() never fires the mutation epoch: installing a mapping in a
     * previously non-present range cannot change any existing present
     * translation, and memoized translators never cache negative
     * results, so no memo entry can go stale (vm/translator.hh).
     */
    void map(Addr vaddr, PageSize size, Addr pframe,
             bool writable = true);

    /**
     * Remove the leaf mapping covering @p vaddr (any page size).
     * Intermediate nodes are kept, as a real OS keeps page-table pages
     * after pte_clear: a later walk faults at the first absent level
     * below them and a later map() reuses them. Bumps the mutation
     * epoch when a mapping was actually removed.
     * @return true iff a mapping existed.
     */
    bool unmap(Addr vaddr);

    /**
     * Replace the mapping covering @p vaddr with a new frame (unmap +
     * map). The page at the *new* size must be free after the unmap —
     * size-changing replacement of a partially mapped region goes
     * through promote() instead.
     */
    void remap(Addr vaddr, PageSize size, Addr pframe,
               bool writable = true);

    /**
     * Change the permission bit of the leaf covering @p vaddr. Bumps
     * the mutation epoch when the bit actually changed.
     * @return true iff a mapping existed.
     */
    bool protect(Addr vaddr, bool writable);

    /**
     * Superpage promotion: collapse whatever is mapped inside the
     * @p size-aligned region containing @p vaddr into one superpage
     * leaf at @p pframe. Any page-table subtree under the region (4KB
     * leaves of a 2MB region; 2MB/4KB leaves of a 1GB region) is
     * discarded; its node frames stay allocated in the OS model, as
     * with a real buddy allocator holding freed PT pages. Bumps the
     * mutation epoch.
     */
    void promote(Addr vaddr, PageSize size, Addr pframe,
                 bool writable = true);

    /** Translate without touching hardware structures. */
    Translation translate(Addr vaddr) const;

    /**
     * Structural walk: writes exactly the PTE fetches a hardware walker
     * makes into @p steps (at most 4, L4 first; for a valid walk the
     * last is the leaf PTE, for a fault the first non-present entry)
     * and the outcome into @p xlate, and returns the step count.
     */
    int walkInto(Addr vaddr, WalkStep steps[4],
                 Translation &xlate) const;

    /** Physical address of the root (CR3 contents). */
    Addr rootAddr() const { return root_; }

    /** Number of table nodes (== 4KB frames consumed by this table). */
    std::uint64_t nodeCount() const { return nodeCount_; }

    /**
     * Monotone counter bumped by every mutation that can change an
     * existing present translation — unmap, remap, protect, promote —
     * and never by map() (see there). This is the bulk-invalidation
     * hook memoized translators key their entries on: a stale entry
     * carries an older epoch and can never be served again.
     */
    std::uint64_t mutationEpoch() const { return mutationEpoch_; }

    /** Virtual-page index bits for @p level (9 bits per level). */
    static unsigned indexAt(Addr vaddr, int level);

  private:
    /** PTE word flags; the bits above them are the target. */
    static constexpr std::uint64_t kPresent = 1;
    static constexpr std::uint64_t kLeaf = 2;
    static constexpr std::uint64_t kWritable = 4;
    static constexpr unsigned kSizeShift = 3; //!< PageSize, bits 3-4
    static constexpr std::uint64_t kFlagMask = kPageBytes - 1;

    /** The word of a present leaf. */
    static std::uint64_t
    leafPte(Addr pframe, PageSize size, bool writable)
    {
        return pframe | kPresent | kLeaf | (writable ? kWritable : 0)
            | static_cast<std::uint64_t>(size) << kSizeShift;
    }

    /** The word of @p vaddr's PTE at @p level, creating the nodes
     * above it on demand. Valid until the next new PTE. */
    std::uint64_t &pteAt(Addr vaddr, int level);
    /** The live leaf word covering @p vaddr, or nullptr. */
    std::uint64_t *leafWord(Addr vaddr);
    /** Does the subtree under @p node hold a present leaf? */
    bool hasMapping(Addr node) const;
    /** Clear the present bit of every entry under @p node: @return
     * the number of nodes in the subtree, @p node included. */
    std::uint64_t reclaim(Addr node);

    OsMemory &os_;
    Addr root_;
    FlatAddrTable<std::uint64_t> ptes_;
    std::uint64_t nodeCount_ = 1;
    std::uint64_t mutationEpoch_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_PAGE_TABLE_HH
