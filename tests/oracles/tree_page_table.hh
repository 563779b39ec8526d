/**
 * @file
 * TreePageTable: the simulator's original page-table host storage, kept
 * with the tests as a reference implementation (as heap_event_queue.hh
 * keeps the binary-heap event queue).
 *
 * It models the same radix table as vm/page_table.hh — the same node
 * frames from the same OsMemory calls in the same order, the same walk
 * steps, node count and mutation epoch — but stores it as a tree of
 * heap nodes, one std::unordered_map<unsigned, Entry> per node, and
 * erases a leaf on unmap. The randomized PageTableDifferential tests in
 * tests/page_table_test.cpp drive it and the flat PageTable on twin
 * OsMemory instances and require equal answers after every operation.
 * It is never linked into the simulator.
 */

#ifndef TEMPO_ORACLES_TREE_PAGE_TABLE_HH
#define TEMPO_ORACLES_TREE_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"
#include "vm/os_memory.hh"
#include "vm/page_table.hh"

namespace tempo {

class TreePageTable
{
  public:
    explicit TreePageTable(OsMemory &os);
    ~TreePageTable();

    TreePageTable(const TreePageTable &) = delete;
    TreePageTable &operator=(const TreePageTable &) = delete;

    /** The operations of PageTable, with its contracts. */
    void map(Addr vaddr, PageSize size, Addr pframe,
             bool writable = true);
    bool unmap(Addr vaddr);
    void remap(Addr vaddr, PageSize size, Addr pframe,
               bool writable = true);
    bool protect(Addr vaddr, bool writable);
    void promote(Addr vaddr, PageSize size, Addr pframe,
                 bool writable = true);

    Translation translate(Addr vaddr) const;
    int walkInto(Addr vaddr, WalkStep steps[4],
                 Translation &xlate) const;

    std::uint64_t nodeCount() const { return nodeCount_; }
    std::uint64_t mutationEpoch() const { return mutationEpoch_; }

  private:
    struct Node;
    struct Entry {
        bool present = false;
        bool isLeaf = false;
        bool writable = true;          //!< leaf: permission bit
        Addr pframe = 0;               //!< leaf: frame base
        PageSize size = PageSize::Page4K;
        std::unique_ptr<Node> child;   //!< non-leaf: next level node
    };
    struct Node {
        Addr physBase;
        std::unordered_map<unsigned, Entry> entries;
    };

    Node *ensureChild(Node *node, unsigned index);
    Entry *findLeaf(Addr vaddr);
    static bool subtreeHasMapping(const Node *node);
    static std::uint64_t subtreeNodes(const Node *node);

    OsMemory &os_;
    std::unique_ptr<Node> root_;
    std::uint64_t nodeCount_ = 0;
    std::uint64_t mutationEpoch_ = 0;
};

} // namespace tempo

#endif // TEMPO_ORACLES_TREE_PAGE_TABLE_HH
