#include "oracles/tree_page_table.hh"

#include "common/log.hh"

namespace tempo {

namespace {

unsigned
indexAt(Addr vaddr, int level)
{
    return PageTable::indexAt(vaddr, level);
}

} // namespace

TreePageTable::TreePageTable(OsMemory &os) : os_(os)
{
    root_ = std::make_unique<Node>();
    root_->physBase = os_.allocPtNode();
    nodeCount_ = 1;
}

TreePageTable::~TreePageTable() = default;

TreePageTable::Node *
TreePageTable::ensureChild(Node *node, unsigned index)
{
    Entry &entry = node->entries[index];
    TEMPO_ASSERT(!entry.isLeaf,
                 "remapping a leaf PTE as an intermediate node");
    if (!entry.present) {
        entry.present = true;
        entry.child = std::make_unique<Node>();
        entry.child->physBase = os_.allocPtNode();
        ++nodeCount_;
    }
    return entry.child.get();
}

void
TreePageTable::map(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    TEMPO_ASSERT(pframe % pageBytes(size) == 0,
                 "frame not aligned to page size");
    const int leaf = leafLevel(size);
    Node *node = root_.get();
    for (int level = 4; level > leaf; --level)
        node = ensureChild(node, indexAt(vaddr, level));

    Entry &entry = node->entries[indexAt(vaddr, leaf)];
    if (entry.present && !entry.isLeaf && entry.child
        && !subtreeHasMapping(entry.child.get())) {
        // A superpage map over page-table structure whose leaves were
        // all unmapped: reclaim the empty subtree (a real OS reuses
        // freed PT pages when installing a hugepage). No translation
        // changes, so no epoch bump.
        nodeCount_ -= subtreeNodes(entry.child.get());
        entry.child.reset();
        entry.present = false;
    }
    TEMPO_ASSERT(!entry.present, "double mapping of vaddr ", vaddr);
    entry.present = true;
    entry.isLeaf = true;
    entry.writable = writable;
    entry.pframe = pframe;
    entry.size = size;
    // No epoch bump: a previously non-present range cannot have live
    // memo entries (negative results are never memoized).
}

TreePageTable::Entry *
TreePageTable::findLeaf(Addr vaddr)
{
    Node *node = root_.get();
    for (int level = 4; level >= 1; --level) {
        const auto it = node->entries.find(indexAt(vaddr, level));
        if (it == node->entries.end() || !it->second.present)
            return nullptr;
        if (it->second.isLeaf)
            return &it->second;
        node = it->second.child.get();
    }
    return nullptr;
}

bool
TreePageTable::subtreeHasMapping(const Node *node)
{
    for (const auto &[index, entry] : node->entries) {
        if (!entry.present)
            continue;
        if (entry.isLeaf)
            return true;
        if (entry.child && subtreeHasMapping(entry.child.get()))
            return true;
    }
    return false;
}

std::uint64_t
TreePageTable::subtreeNodes(const Node *node)
{
    std::uint64_t count = 1;
    for (const auto &[index, entry] : node->entries) {
        if (entry.child)
            count += subtreeNodes(entry.child.get());
    }
    return count;
}

bool
TreePageTable::unmap(Addr vaddr)
{
    Node *node = root_.get();
    for (int level = 4; level >= 1; --level) {
        const auto it = node->entries.find(indexAt(vaddr, level));
        if (it == node->entries.end() || !it->second.present)
            return false;
        if (it->second.isLeaf) {
            node->entries.erase(it);
            ++mutationEpoch_;
            return true;
        }
        node = it->second.child.get();
    }
    return false;
}

void
TreePageTable::remap(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    // unmap() bumps the epoch when a live mapping is replaced; a remap
    // of an unmapped page degenerates to a plain map.
    unmap(vaddr);
    map(alignDown(vaddr, pageBytes(size)), size, pframe, writable);
}

bool
TreePageTable::protect(Addr vaddr, bool writable)
{
    Entry *leaf = findLeaf(vaddr);
    if (leaf == nullptr)
        return false;
    if (leaf->writable != writable) {
        leaf->writable = writable;
        ++mutationEpoch_;
    }
    return true;
}

void
TreePageTable::promote(Addr vaddr, PageSize size, Addr pframe, bool writable)
{
    TEMPO_ASSERT(size != PageSize::Page4K,
                 "promotion target must be a superpage");
    TEMPO_ASSERT(pframe % pageBytes(size) == 0,
                 "frame not aligned to page size");
    const Addr base = alignDown(vaddr, pageBytes(size));
    const int leaf = leafLevel(size);
    Node *node = root_.get();
    for (int level = 4; level > leaf; --level)
        node = ensureChild(node, indexAt(base, level));

    Entry &entry = node->entries[indexAt(base, leaf)];
    if (entry.child) {
        nodeCount_ -= subtreeNodes(entry.child.get());
        entry.child.reset();
    }
    entry.present = true;
    entry.isLeaf = true;
    entry.writable = writable;
    entry.pframe = pframe;
    entry.size = size;
    ++mutationEpoch_;
}

Translation
TreePageTable::translate(Addr vaddr) const
{
    const Node *node = root_.get();
    for (int level = 4; level >= 1; --level) {
        const auto it = node->entries.find(indexAt(vaddr, level));
        if (it == node->entries.end() || !it->second.present)
            return Translation{};
        const Entry &entry = it->second;
        if (entry.isLeaf) {
            Translation result;
            result.valid = true;
            result.writable = entry.writable;
            result.pframe = entry.pframe;
            result.size = entry.size;
            return result;
        }
        node = entry.child.get();
    }
    return Translation{};
}

int
TreePageTable::walkInto(Addr vaddr, WalkStep steps[4],
                    Translation &xlate) const
{
    xlate = Translation{};
    int count = 0;
    const Node *node = root_.get();
    for (int level = 4; level >= 1; --level) {
        const unsigned index = indexAt(vaddr, level);
        steps[count++] =
            WalkStep{level, node->physBase + index * kPteBytes};
        const auto it = node->entries.find(index);
        if (it == node->entries.end() || !it->second.present)
            return count; // fault: last step read a non-present PTE
        const Entry &entry = it->second;
        if (entry.isLeaf) {
            xlate.valid = true;
            xlate.writable = entry.writable;
            xlate.pframe = entry.pframe;
            xlate.size = entry.size;
            return count;
        }
        node = entry.child.get();
    }
    TEMPO_PANIC("walk descended past L1");
}

} // namespace tempo
