#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "common/rng.hh"
#include "oracles/tree_page_table.hh"
#include "vm/page_table.hh"
#include "vm/translator.hh"

namespace tempo {
namespace {

struct PageTableFixture : public ::testing::Test {
    OsMemory os{OsMemoryConfig{}};
    PageTable table{os};

    /** The structural walk of @p vaddr, through walkInto(). */
    CachedWalk
    walkOf(Addr vaddr) const
    {
        CachedWalk out;
        out.count = table.walkInto(vaddr, out.steps, out.xlate);
        return out;
    }

    /** The last PTE the walk of @p vaddr reads. */
    WalkStep
    lastStep(Addr vaddr) const
    {
        const CachedWalk out = walkOf(vaddr);
        return out.steps[out.count - 1];
    }
};

TEST_F(PageTableFixture, IndexAtSlicesNineBitsPerLevel)
{
    // vaddr bit layout: [47:39]=L4, [38:30]=L3, [29:21]=L2, [20:12]=L1.
    const Addr vaddr = (Addr{3} << 39) | (Addr{5} << 30)
        | (Addr{7} << 21) | (Addr{9} << 12) | 0x123;
    EXPECT_EQ(PageTable::indexAt(vaddr, 4), 3u);
    EXPECT_EQ(PageTable::indexAt(vaddr, 3), 5u);
    EXPECT_EQ(PageTable::indexAt(vaddr, 2), 7u);
    EXPECT_EQ(PageTable::indexAt(vaddr, 1), 9u);
}

TEST_F(PageTableFixture, UnmappedTranslateIsInvalid)
{
    EXPECT_FALSE(table.translate(0x1234000).valid);
}

TEST_F(PageTableFixture, MapThenTranslate4K)
{
    const Addr frame = os.allocFrame(PageSize::Page4K);
    table.map(0x1234000, PageSize::Page4K, frame);
    const Translation xlate = table.translate(0x1234567);
    ASSERT_TRUE(xlate.valid);
    EXPECT_EQ(xlate.pframe, frame);
    EXPECT_EQ(xlate.size, PageSize::Page4K);
    EXPECT_EQ(xlate.physAddr(0x1234567), frame + 0x567);
}

TEST_F(PageTableFixture, MapThenTranslate2M)
{
    const Addr frame = os.allocFrame(PageSize::Page2M);
    table.map(0x40000000, PageSize::Page2M, frame);
    const Translation xlate = table.translate(0x40123456);
    ASSERT_TRUE(xlate.valid);
    EXPECT_EQ(xlate.size, PageSize::Page2M);
    EXPECT_EQ(xlate.physAddr(0x40123456), frame + 0x123456);
}

TEST_F(PageTableFixture, FullWalkHasFourLevels)
{
    const Addr frame = os.allocFrame(PageSize::Page4K);
    table.map(0x1234000, PageSize::Page4K, frame);
    const CachedWalk walk = walkOf(0x1234000);
    ASSERT_TRUE(walk.xlate.valid);
    ASSERT_EQ(walk.count, 4);
    EXPECT_EQ(walk.steps[0].level, 4);
    EXPECT_EQ(walk.steps[1].level, 3);
    EXPECT_EQ(walk.steps[2].level, 2);
    EXPECT_EQ(walk.steps[3].level, 1);
    // The first step reads the root node.
    EXPECT_EQ(alignDown(walk.steps[0].pteAddr, kPageBytes),
              table.rootAddr());
}

TEST_F(PageTableFixture, SuperpageWalksAreShorter)
{
    table.map(0x40000000, PageSize::Page2M,
              os.allocFrame(PageSize::Page2M));
    EXPECT_EQ(walkOf(0x40000000).count, 3);

    table.map(0x80000000ull, PageSize::Page1G,
              os.allocFrame(PageSize::Page1G));
    EXPECT_EQ(walkOf(0x80000000ull).count, 2);
}

TEST_F(PageTableFixture, PteAddressesMatchIndices)
{
    const Addr vaddr = 0x1234000;
    table.map(vaddr, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    const CachedWalk walk = walkOf(vaddr);
    for (int i = 0; i < walk.count; ++i) {
        const WalkStep &step = walk.steps[i];
        // Each PTE sits at node_base + index*8; check the offset part.
        const unsigned index = PageTable::indexAt(vaddr, step.level);
        EXPECT_EQ(step.pteAddr % kPageBytes, index * kPteBytes)
            << "level " << step.level;
    }
}

TEST_F(PageTableFixture, FaultingWalkStopsAtMissingLevel)
{
    // Map one page; a cousin address sharing only the L4 entry walks
    // down to the missing L3 entry and stops.
    table.map(0x0, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    const Addr cousin = Addr{1} << 30; // same L4 index, different L3
    const CachedWalk walk = walkOf(cousin);
    EXPECT_FALSE(walk.xlate.valid);
    EXPECT_EQ(walk.count, 2); // read L4 (present), L3 (absent)
}

TEST_F(PageTableFixture, NodesGetDistinctFrames)
{
    table.map(0x0, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    const CachedWalk walk = walkOf(0x0);
    for (int i = 0; i < walk.count; ++i) {
        for (int j = i + 1; j < walk.count; ++j) {
            EXPECT_NE(alignDown(walk.steps[i].pteAddr, kPageBytes),
                      alignDown(walk.steps[j].pteAddr, kPageBytes));
        }
    }
}

TEST_F(PageTableFixture, NodeCountGrowsOnDemand)
{
    EXPECT_EQ(table.nodeCount(), 1u); // root
    table.map(0x0, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    EXPECT_EQ(table.nodeCount(), 4u); // root + L3 + L2 + L1 nodes
    // A sibling page in the same 2MB region reuses every node.
    table.map(kPageBytes, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    EXPECT_EQ(table.nodeCount(), 4u);
    // A distant page needs a whole new subtree.
    table.map(Addr{1} << 39, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    EXPECT_EQ(table.nodeCount(), 7u);
}

TEST_F(PageTableFixture, PtNodesConsumeOsMemory)
{
    const Addr before = os.ptBytesAllocated();
    table.map(0x5555000, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    EXPECT_GT(os.ptBytesAllocated(), before);
}

TEST_F(PageTableFixture, AdjacentPagesShareLeafPteLine)
{
    // 8 PTEs per 64B line: pages 0..7 of a 2MB region share a line —
    // the spatial-locality property the paper's Fig. 8 exploits.
    for (Addr page = 0; page < 8; ++page) {
        table.map(page * kPageBytes, PageSize::Page4K,
                  os.allocFrame(PageSize::Page4K));
    }
    const Addr line0 = lineAddr(lastStep(0).pteAddr);
    for (Addr page = 1; page < 8; ++page) {
        EXPECT_EQ(lineAddr(lastStep(page * kPageBytes).pteAddr),
                  line0);
    }
    table.map(8 * kPageBytes, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    EXPECT_NE(lineAddr(lastStep(8 * kPageBytes).pteAddr),
              line0);
}

TEST_F(PageTableFixture, DoubleMapDies)
{
    table.map(0x9000, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    EXPECT_DEATH(table.map(0x9000, PageSize::Page4K,
                           os.allocFrame(PageSize::Page4K)),
                 "double mapping");
}

TEST_F(PageTableFixture, MisalignedFrameDies)
{
    EXPECT_DEATH(table.map(0x40000000, PageSize::Page2M, 0x1000),
                 "aligned");
}

TEST_F(PageTableFixture, UnmapRemovesLeafKeepsNodes)
{
    table.map(0x1234000, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    const std::uint64_t nodes = table.nodeCount();
    const std::uint64_t epoch = table.mutationEpoch();

    EXPECT_TRUE(table.unmap(0x1234abc)); // any addr inside the page
    EXPECT_FALSE(table.translate(0x1234000).valid);
    // pte_clear semantics: the intermediate nodes stay allocated...
    EXPECT_EQ(table.nodeCount(), nodes);
    // ...and the epoch moved, so memoized translators drop the leaf.
    EXPECT_GT(table.mutationEpoch(), epoch);
    // A walk now faults at the (kept) L1 node's empty slot.
    EXPECT_EQ(walkOf(0x1234000).count, 4);

    // Unmapping nothing is a no-op that reports false, no epoch bump.
    const std::uint64_t after = table.mutationEpoch();
    EXPECT_FALSE(table.unmap(0x1234000));
    EXPECT_EQ(table.mutationEpoch(), after);
}

TEST_F(PageTableFixture, RemapReplacesFrame)
{
    const Addr first = os.allocFrame(PageSize::Page4K);
    table.map(0x1234000, PageSize::Page4K, first);
    const Addr second = os.allocFrame(PageSize::Page4K);
    table.remap(0x1234000, PageSize::Page4K, second);
    const Translation t = table.translate(0x1234000);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pframe, second);
}

TEST_F(PageTableFixture, ProtectTogglesWritableAndEpoch)
{
    table.map(0x1234000, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K), /*writable=*/true);
    const std::uint64_t epoch = table.mutationEpoch();
    EXPECT_TRUE(table.protect(0x1234000, false));
    EXPECT_FALSE(table.translate(0x1234000).writable);
    EXPECT_GT(table.mutationEpoch(), epoch);

    // Setting the bit to its current value must not bump the epoch.
    const std::uint64_t settled = table.mutationEpoch();
    EXPECT_TRUE(table.protect(0x1234000, false));
    EXPECT_EQ(table.mutationEpoch(), settled);
    EXPECT_FALSE(table.protect(0x9999000, false)); // unmapped
}

TEST_F(PageTableFixture, PromoteCollapsesSubtree)
{
    // Populate a 2MB region with 4K pages, then promote it.
    for (int i = 0; i < 4; ++i)
        table.map(0x40000000 + static_cast<Addr>(i) * kPageBytes,
                  PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    const std::uint64_t nodes = table.nodeCount();
    const Addr super = os.allocFrame(PageSize::Page2M);
    table.promote(0x40000000, PageSize::Page2M, super);

    const Translation t = table.translate(0x40000000 + 3 * kPageBytes);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.size, PageSize::Page2M);
    EXPECT_EQ(t.pframe, super);
    EXPECT_EQ(table.nodeCount(), nodes - 1); // L1 node discarded
    EXPECT_EQ(lastStep(0x40000000).level, 2);
}

TEST_F(PageTableFixture, SuperpageMapReclaimsEmptiedSubtree)
{
    // 4K structure whose leaves are all unmapped leaves empty PT nodes
    // behind; a 2MB map over the region must reclaim them rather than
    // report a double mapping (a real OS reuses freed PT pages).
    table.map(0x40001000, PageSize::Page4K,
              os.allocFrame(PageSize::Page4K));
    EXPECT_TRUE(table.unmap(0x40001000));
    const std::uint64_t nodes = table.nodeCount();

    const Addr super = os.allocFrame(PageSize::Page2M);
    table.map(0x40000000, PageSize::Page2M, super);
    const Translation t = table.translate(0x40001000);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.size, PageSize::Page2M);
    EXPECT_EQ(table.nodeCount(), nodes - 1); // the empty L1 node

    // But mapping over a *live* translation still dies.
    EXPECT_DEATH(table.map(0x40000000, PageSize::Page2M,
                           os.allocFrame(PageSize::Page2M)),
                 "double mapping");
}

// ---------------------------------------------------------------------
// Differential test against the tree-of-maps oracle.

/** The legal-operation model: the mapped leaves, base -> size. */
struct LeafModel {
    std::map<Addr, PageSize> leaves;

    /** Any mapped leaf intersecting [base, base+bytes)? */
    bool
    overlaps(Addr base, Addr bytes) const
    {
        auto it = leaves.lower_bound(base);
        if (it != leaves.end() && it->first < base + bytes)
            return true;
        return it != leaves.begin()
            && std::prev(it)->first + pageBytes(std::prev(it)->second)
                   > base;
    }

    /** Is [base, base+bytes) inside a leaf larger than @p bytes?
     * Promoting it would split a superpage. */
    bool
    insideLargerLeaf(Addr base, Addr bytes) const
    {
        auto it = leaves.upper_bound(base);
        return it != leaves.begin()
            && std::prev(it)->first + pageBytes(std::prev(it)->second)
                   > base
            && pageBytes(std::prev(it)->second) > bytes;
    }
};

class PageTableDifferential : public ::testing::TestWithParam<int>
{
};

/**
 * Seeded random map/unmap/remap/protect/promote sequences over all
 * three page sizes, driven on the flat PageTable and the TreePageTable
 * oracle over twin OsMemory instances, so node and data frames match
 * address for address. After every operation the two agree on
 * translate(), the walkInto() steps, nodeCount() and mutationEpoch().
 * Addresses come from 4 x 4 2MB regions of 32 pages each, dense enough
 * that superpage maps land on subtrees whose 4KB leaves were all
 * unmapped and reclaim them.
 */
TEST_P(PageTableDifferential, MatchesTreeOracle)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    OsMemoryConfig os_cfg;
    os_cfg.physBytes = Addr{1} << 48; // every 1GB remap takes a frame
    OsMemory os_flat{os_cfg};
    OsMemory os_tree{os_cfg};
    PageTable flat{os_flat};
    TreePageTable tree{os_tree};
    LeafModel model;
    std::uint64_t reclaims = 0;

    auto pickVaddr = [&]() -> Addr {
        return rng.below(4) * kPage1GBytes + rng.below(4) * kPage2MBytes
            + rng.below(32) * kPageBytes + rng.below(kPageBytes);
    };
    auto pickSize = [&]() -> PageSize {
        const std::uint64_t roll = rng.below(100);
        return roll < 70 ? PageSize::Page4K
            : roll < 92  ? PageSize::Page2M
                         : PageSize::Page1G;
    };
    auto frame = [&](PageSize size) -> Addr {
        const Addr pframe = os_flat.allocFrame(size);
        EXPECT_EQ(os_tree.allocFrame(size), pframe);
        return pframe;
    };
    auto expectSameXlate = [](const Translation &got,
                              const Translation &want, Addr vaddr) {
        EXPECT_EQ(got.valid, want.valid) << vaddr;
        EXPECT_EQ(got.writable, want.writable) << vaddr;
        EXPECT_EQ(got.pframe, want.pframe) << vaddr;
        EXPECT_EQ(got.size, want.size) << vaddr;
    };
    auto check = [&](Addr vaddr) {
        expectSameXlate(flat.translate(vaddr), tree.translate(vaddr),
                        vaddr);
        WalkStep got[4];
        WalkStep want[4];
        Translation got_xlate;
        Translation want_xlate;
        const int count = flat.walkInto(vaddr, got, got_xlate);
        ASSERT_EQ(count, tree.walkInto(vaddr, want, want_xlate)) << vaddr;
        for (int i = 0; i < count; ++i) {
            EXPECT_EQ(got[i].level, want[i].level) << vaddr;
            EXPECT_EQ(got[i].pteAddr, want[i].pteAddr) << vaddr;
        }
        expectSameXlate(got_xlate, want_xlate, vaddr);
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t action = rng.below(100);
        Addr vaddr = pickVaddr();
        if (action < 35) {
            const PageSize size = pickSize();
            vaddr = alignDown(vaddr, pageBytes(size));
            if (!model.overlaps(vaddr, pageBytes(size))) {
                const std::uint64_t nodes = flat.nodeCount();
                const Addr pframe = frame(size);
                const bool writable = rng.chance(0.8);
                flat.map(vaddr, size, pframe, writable);
                tree.map(vaddr, size, pframe, writable);
                model.leaves.emplace(vaddr, size);
                reclaims += flat.nodeCount() < nodes;
            }
        } else if (action < 60) {
            if (!model.leaves.empty() && rng.chance(0.8)) {
                auto it = model.leaves.begin();
                std::advance(it, static_cast<long>(
                                     rng.below(model.leaves.size())));
                vaddr = it->first + rng.below(pageBytes(it->second));
            }
            const bool unmapped = flat.unmap(vaddr);
            EXPECT_EQ(unmapped, tree.unmap(vaddr)) << vaddr;
            auto it = model.leaves.upper_bound(vaddr);
            if (unmapped)
                model.leaves.erase(std::prev(it));
        } else if (action < 70) {
            auto it = model.leaves.upper_bound(vaddr);
            if (it != model.leaves.begin()
                && std::prev(it)->first + pageBytes(std::prev(it)->second)
                       > vaddr) {
                const PageSize size = std::prev(it)->second;
                const Addr pframe = frame(size);
                flat.remap(vaddr, size, pframe);
                tree.remap(vaddr, size, pframe);
            }
        } else if (action < 80) {
            const bool writable = rng.chance(0.5);
            EXPECT_EQ(flat.protect(vaddr, writable),
                      tree.protect(vaddr, writable))
                << vaddr;
        } else if (action < 90) {
            const PageSize size =
                rng.chance(0.8) ? PageSize::Page2M : PageSize::Page1G;
            const Addr bytes = pageBytes(size);
            const Addr base = alignDown(vaddr, bytes);
            if (!model.insideLargerLeaf(base, bytes)) {
                const Addr pframe = frame(size);
                flat.promote(base, size, pframe);
                tree.promote(base, size, pframe);
                model.leaves.erase(model.leaves.lower_bound(base),
                                   model.leaves.lower_bound(base + bytes));
                model.leaves.emplace(base, size);
            }
        }
        ASSERT_EQ(flat.nodeCount(), tree.nodeCount()) << "op " << op;
        ASSERT_EQ(flat.mutationEpoch(), tree.mutationEpoch())
            << "op " << op;
        check(vaddr);
        for (int probe = 0; probe < 4; ++probe)
            check(pickVaddr());
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at op " << op;
    }
    // Every case the table handles was reached.
    EXPECT_GT(reclaims, 0u);
    EXPECT_GT(flat.mutationEpoch(), 0u);
    EXPECT_FALSE(model.leaves.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableDifferential,
                         ::testing::Values(1, 2, 3));

} // namespace
} // namespace tempo
