/**
 * @file
 * A process address space: demand paging over the OS frame allocator,
 * with the page-size policies the paper evaluates (Sec. 6.2):
 *
 *  - Base4K       — transparent hugepages disabled;
 *  - Thp          — Linux-style transparent 2MB hugepages: an eligible
 *                   2MB virtual region gets a superpage if the allocator
 *                   can produce a clean 2MB block (fragmentation-limited);
 *  - Hugetlbfs2M  — explicitly requested 2MB pages (higher coverage);
 *  - Hugetlbfs1G  — explicitly requested 1GB pages for the bulk of the
 *                   heap, 4KB for the rest.
 */

#ifndef TEMPO_VM_ADDRESS_SPACE_HH
#define TEMPO_VM_ADDRESS_SPACE_HH

#include <cstdint>

#include "common/flat_table.hh"
#include "common/types.hh"
#include "stats/stats.hh"
#include "vm/os_memory.hh"
#include "vm/page_table.hh"
#include "vm/translator.hh"

namespace tempo {

enum class PagePolicy : std::uint8_t {
    Base4K,
    Thp,
    Hugetlbfs2M,
    Hugetlbfs1G,
};

/** The spelling of each PagePolicy, in enum order. */
inline constexpr const char *kPagePolicyNames[] = {"4k", "thp",
                                                   "hugetlbfs2m",
                                                   "hugetlbfs1g"};
static_assert(std::size(kPagePolicyNames)
              == static_cast<std::size_t>(PagePolicy::Hugetlbfs1G) + 1);

struct AddressSpaceConfig {
    PagePolicy policy = PagePolicy::Thp;
    /** Fraction of 2MB regions THP considers huge-eligible (models vma
     * alignment/madvise coverage on a real system). */
    double thpEligibleFrac = 0.60;
    /** Same for explicitly requested hugetlbfs 2MB pages. */
    double hugetlbfs2MFrac = 0.95;
    /** Fraction of 1GB regions backed when using 1GB pages. */
    double hugetlbfs1GFrac = 0.85;
    std::uint64_t seed = 7;
};

class AddressSpace
{
  public:
    AddressSpace(OsMemory &os, const AddressSpaceConfig &cfg,
                 const TranslatorConfig &xlate_cfg = {});

    /**
     * Ensure the page containing @p vaddr is mapped (demand paging).
     * @return true if this touch faulted (a new mapping was created).
     */
    bool touch(Addr vaddr);

    /** Translation for @p vaddr; invalid if never touched. */
    Translation translate(Addr vaddr) const;

    /** The memoized translation front end over this space's table
     * (vm/translator.hh); the walker plans its walks through it. */
    Translator &translator() const { return translator_; }

    const PageTable &pageTable() const { return table_; }
    PageTable &pageTable() { return table_; }

    /** Distinct touched bytes (at 4KB granularity). */
    Addr touchedBytes() const { return touched4k_ * kPageBytes; }

    /** Fraction of the touched footprint backed by 2MB pages. */
    double coverage2M() const;
    /** Fraction of the touched footprint backed by 1GB pages. */
    double coverage1G() const;
    /** Fraction backed by any superpage (paper Fig. 10 right). */
    double superpageCoverage() const;

    std::uint64_t faults() const { return faults_; }

    void report(stats::Report &out) const;

  private:
    /** Deterministic per-region eligibility decision. */
    bool regionEligible(Addr region_base, double frac) const;

    /** Choose and install a mapping for a faulting vaddr. */
    void installMapping(Addr vaddr);

    OsMemory &os_;
    AddressSpaceConfig cfg_;
    PageTable table_;

    /** Memoized front end; mutable because memo fills are logically
     * const (translate() caches, it never changes the mapping). */
    mutable Translator translator_;

    /** 4KB granules already demand-paged and counted: the slow-path
     * seen-set behind the translator's touched-bit fast path. */
    FlatAddrSet seen4k_;

    /** Superpage regions that fell back to 4KB (stay 4KB forever). */
    FlatAddrSet demoted_;

    std::uint64_t touched4k_ = 0;
    std::uint64_t touched4kIn2M_ = 0;
    std::uint64_t touched4kIn1G_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_ADDRESS_SPACE_HH
