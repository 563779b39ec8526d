/**
 * @file
 * The hardware page-table walker's structural half: given a virtual
 * address, consult the MMU caches and produce the exact sequence of PTE
 * fetches the walk needs (the timing of those fetches through the cache
 * hierarchy and DRAM belongs to the system model).
 *
 * TEMPO's hardware change lives here conceptually: the walker tags the
 * *leaf* fetch and appends the replay's cache-line index (Sec. 4.1).
 */

#ifndef TEMPO_VM_WALKER_HH
#define TEMPO_VM_WALKER_HH

#include <cstddef>
#include <initializer_list>

#include "common/log.hh"
#include "common/types.hh"
#include "vm/mmu_cache.hh"
#include "vm/page_table.hh"
#include "vm/translator.hh"

namespace tempo {

/** The PTE fetches of one walk: at most one per page-table level, so
 * a fixed list that never touches the heap. */
struct WalkFetches {
    static constexpr std::size_t kMax = 4;

    WalkStep steps[kMax] = {};
    std::size_t count = 0;

    WalkFetches() = default;
    WalkFetches(std::initializer_list<WalkStep> list)
    {
        for (const WalkStep &step : list)
            push_back(step);
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const WalkStep &operator[](std::size_t i) const { return steps[i]; }
    const WalkStep &back() const { return steps[count - 1]; }

    void
    push_back(const WalkStep &step)
    {
        TEMPO_ASSERT(count < kMax, "walk deeper than the page table");
        steps[count++] = step;
    }
};

/** A planned page-table walk. */
struct WalkPlan {
    /** PTE fetches to perform, top level first. Levels already covered
     * by MMU cache hits are skipped. The last fetch is the leaf PTE (or,
     * on a fault, the first non-present entry). */
    WalkFetches fetches;
    /** Final translation; !valid means the walk faults. */
    Translation xlate;
    /** Levels the MMU caches satisfied (fetches skipped). */
    int skipped = 0;
    /** Observability walk id assigned by the issuer (0 = none); carried
     * so PT memory requests can be joined back to their walk. */
    std::uint64_t obsWalkId = 0;
};

class Walker
{
  public:
    /** Plans walks over @p translator's page table (walks read
     * PageTable::walkInto() directly; the translation memo is not
     * consulted) and probes @p mmu. */
    Walker(Translator &translator, MmuCache &mmu);

    /** Build the fetch plan for @p vaddr (probes the MMU caches). */
    WalkPlan plan(Addr vaddr);

    /** After the fetches complete, install upper-level entries into the
     * MMU caches (leaf entries go to the TLB, not here). */
    void finish(Addr vaddr, const WalkPlan &plan);

    std::uint64_t walks() const { return walks_; }
    std::uint64_t ptRefsIssued() const { return ptRefs_; }
    std::uint64_t ptRefsSkipped() const { return ptRefsSkipped_; }

  private:
    const PageTable &table_;
    MmuCache &mmu_;
    std::uint64_t walks_ = 0;
    std::uint64_t ptRefs_ = 0;
    std::uint64_t ptRefsSkipped_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_WALKER_HH
