#include "vm/page_table.hh"

#include "common/log.hh"

namespace tempo {

PageTable::PageTable(OsMemory &os) : os_(os), root_(os.allocPtNode()) {}

unsigned
PageTable::indexAt(Addr vaddr, int level)
{
    TEMPO_ASSERT(level >= 1 && level <= 4, "bad page table level ", level);
    const unsigned shift = 12 + 9 * static_cast<unsigned>(level - 1);
    return static_cast<unsigned>((vaddr >> shift) & 0x1ff);
}

std::uint64_t &
PageTable::pteAt(Addr vaddr, int level)
{
    Addr node = root_;
    for (int above = 4; above > level; --above) {
        std::uint64_t &word =
            ptes_[node + indexAt(vaddr, above) * kPteBytes];
        TEMPO_ASSERT(!(word & kPresent) || !(word & kLeaf),
                     "remapping a leaf PTE as an intermediate node");
        if (!(word & kPresent)) {
            word = os_.allocPtNode() | kPresent;
            ++nodeCount_;
        }
        node = word & ~kFlagMask;
    }
    return ptes_[node + indexAt(vaddr, level) * kPteBytes];
}

void
PageTable::map(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    TEMPO_ASSERT(pframe % pageBytes(size) == 0,
                 "frame not aligned to page size");
    std::uint64_t &word = pteAt(vaddr, leafLevel(size));
    if ((word & kPresent) && !(word & kLeaf)
        && !hasMapping(word & ~kFlagMask)) {
        // A superpage map over page-table structure whose leaves were
        // all unmapped: reclaim the empty subtree (a real OS reuses
        // freed PT pages when installing a hugepage). No translation
        // changes, so no epoch bump.
        nodeCount_ -= reclaim(word & ~kFlagMask);
        word = 0;
    }
    TEMPO_ASSERT(!(word & kPresent), "double mapping of vaddr ", vaddr);
    word = leafPte(pframe, size, writable);
    // No epoch bump: a previously non-present range cannot have live
    // memo entries (negative results are never memoized).
}

std::uint64_t *
PageTable::leafWord(Addr vaddr)
{
    WalkStep steps[4];
    Translation xlate;
    const int count = walkInto(vaddr, steps, xlate);
    return xlate.valid ? ptes_.find(steps[count - 1].pteAddr) : nullptr;
}

bool
PageTable::hasMapping(Addr node) const
{
    for (Addr i = 0; i < kPtesPerNode; ++i) {
        const std::uint64_t *word = ptes_.find(node + i * kPteBytes);
        if (word && (*word & kPresent)
            && ((*word & kLeaf) || hasMapping(*word & ~kFlagMask)))
            return true;
    }
    return false;
}

std::uint64_t
PageTable::reclaim(Addr node)
{
    std::uint64_t count = 1;
    for (Addr i = 0; i < kPtesPerNode; ++i) {
        std::uint64_t *word = ptes_.find(node + i * kPteBytes);
        if (!word || !(*word & kPresent))
            continue;
        if (!(*word & kLeaf))
            count += reclaim(*word & ~kFlagMask);
        *word &= ~kPresent;
    }
    return count;
}

bool
PageTable::unmap(Addr vaddr)
{
    std::uint64_t *word = leafWord(vaddr);
    if (word == nullptr)
        return false;
    *word &= ~kPresent;
    ++mutationEpoch_;
    return true;
}

void
PageTable::remap(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    // unmap() bumps the epoch when a live mapping is replaced; a remap
    // of an unmapped page degenerates to a plain map.
    unmap(vaddr);
    map(alignDown(vaddr, pageBytes(size)), size, pframe, writable);
}

bool
PageTable::protect(Addr vaddr, bool writable)
{
    std::uint64_t *word = leafWord(vaddr);
    if (word == nullptr)
        return false;
    if (((*word & kWritable) != 0) != writable) {
        *word ^= kWritable;
        ++mutationEpoch_;
    }
    return true;
}

void
PageTable::promote(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    TEMPO_ASSERT(size != PageSize::Page4K,
                 "promotion target must be a superpage");
    TEMPO_ASSERT(pframe % pageBytes(size) == 0,
                 "frame not aligned to page size");
    std::uint64_t &word =
        pteAt(alignDown(vaddr, pageBytes(size)), leafLevel(size));
    if ((word & kPresent) && !(word & kLeaf))
        nodeCount_ -= reclaim(word & ~kFlagMask);
    word = leafPte(pframe, size, writable);
    ++mutationEpoch_;
}

Translation
PageTable::translate(Addr vaddr) const
{
    WalkStep steps[4];
    Translation xlate;
    walkInto(vaddr, steps, xlate);
    return xlate;
}

int
PageTable::walkInto(Addr vaddr, WalkStep steps[4],
                    Translation &xlate) const
{
    xlate = Translation{};
    Addr node = root_;
    for (int level = 4; level >= 1; --level) {
        const Addr pte = node + indexAt(vaddr, level) * kPteBytes;
        steps[4 - level] = WalkStep{level, pte};
        const std::uint64_t *found = ptes_.find(pte);
        const std::uint64_t word = found ? *found : 0;
        if (!(word & kPresent))
            return 5 - level; // fault: last step read a non-present PTE
        if (word & kLeaf) {
            xlate.valid = true;
            xlate.writable = (word & kWritable) != 0;
            xlate.pframe = word & ~kFlagMask;
            xlate.size = static_cast<PageSize>((word >> kSizeShift) & 3);
            return 5 - level;
        }
        node = word & ~kFlagMask;
    }
    TEMPO_PANIC("walk descended past L1");
}

} // namespace tempo
