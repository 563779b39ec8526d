#include <gtest/gtest.h>

#include "vm/walker.hh"

namespace tempo {
namespace {

struct WalkerFixture : public ::testing::Test {
    OsMemory os{OsMemoryConfig{}};
    PageTable table{os};
    MmuCache mmu{MmuCacheConfig{}};
    Translator translator{table};
    Walker walker{translator, mmu};

    void
    map4K(Addr vaddr)
    {
        table.map(alignDown(vaddr, kPageBytes), PageSize::Page4K,
                  os.allocFrame(PageSize::Page4K));
    }
};

TEST_F(WalkerFixture, ColdWalkFetchesAllFourLevels)
{
    map4K(0x1234000);
    const WalkPlan plan = walker.plan(0x1234000);
    ASSERT_TRUE(plan.xlate.valid);
    EXPECT_EQ(plan.fetches.size(), 4u);
}

TEST_F(WalkerFixture, SecondWalkSkipsCachedLevels)
{
    map4K(0x1234000);
    const WalkPlan first = walker.plan(0x1234000);
    walker.finish(0x1234000, first);
    // The L4/L3/L2 entries are now in the MMU caches; only the leaf
    // remains.
    const WalkPlan second = walker.plan(0x1234000);
    ASSERT_EQ(second.fetches.size(), 1u);
    EXPECT_EQ(second.fetches[0].level, 1);
}

TEST_F(WalkerFixture, LeafIsAlwaysFetched)
{
    // The TLB caches leaf translations, not the MMU caches: every walk
    // must fetch at least the leaf PTE.
    map4K(0x1234000);
    for (int i = 0; i < 5; ++i) {
        const WalkPlan plan = walker.plan(0x1234000);
        EXPECT_GE(plan.fetches.size(), 1u);
        EXPECT_EQ(plan.fetches.back().level, 1);
        walker.finish(0x1234000, plan);
    }
}

TEST_F(WalkerFixture, NeighbouringPagesShareUpperLevels)
{
    map4K(0x1234000);
    map4K(0x1235000);
    const WalkPlan first = walker.plan(0x1234000);
    walker.finish(0x1234000, first);
    // Same 2MB region: all upper levels cached.
    const WalkPlan second = walker.plan(0x1235000);
    EXPECT_EQ(second.fetches.size(), 1u);
}

TEST_F(WalkerFixture, DistantPageSharesNothing)
{
    map4K(0x1234000);
    const WalkPlan first = walker.plan(0x1234000);
    walker.finish(0x1234000, first);
    const Addr far = Addr{7} << 39;
    table.map(far, PageSize::Page4K, os.allocFrame(PageSize::Page4K));
    const WalkPlan second = walker.plan(far);
    EXPECT_EQ(second.fetches.size(), 4u);
}

TEST_F(WalkerFixture, TwoMegWalkEndsAtLevel2)
{
    table.map(0x40000000, PageSize::Page2M,
              os.allocFrame(PageSize::Page2M));
    const WalkPlan plan = walker.plan(0x40000000);
    ASSERT_TRUE(plan.xlate.valid);
    EXPECT_EQ(plan.fetches.back().level, 2);
    EXPECT_EQ(plan.xlate.size, PageSize::Page2M);
}

TEST_F(WalkerFixture, TwoMegLeafNotCachedInMmu)
{
    table.map(0x40000000, PageSize::Page2M,
              os.allocFrame(PageSize::Page2M));
    const WalkPlan first = walker.plan(0x40000000);
    walker.finish(0x40000000, first);
    // L4/L3 cached, but the L2 *leaf* must not be: the next walk still
    // fetches it.
    const WalkPlan second = walker.plan(0x40000000);
    ASSERT_EQ(second.fetches.size(), 1u);
    EXPECT_EQ(second.fetches[0].level, 2);
}

TEST_F(WalkerFixture, FaultingWalkHasInvalidTranslation)
{
    map4K(0x0);
    const WalkPlan plan = walker.plan(Addr{1} << 30);
    EXPECT_FALSE(plan.xlate.valid);
    EXPECT_GE(plan.fetches.size(), 1u);
}

TEST_F(WalkerFixture, FinishDoesNotCacheFaultingLevels)
{
    map4K(0x0);
    const Addr bad = Addr{1} << 30; // L4 present, L3 absent
    const WalkPlan plan = walker.plan(bad);
    walker.finish(bad, plan);
    // Only the L4 entry (fetched and present) may be cached; a re-plan
    // still needs the L3 fetch.
    const WalkPlan replan = walker.plan(bad);
    EXPECT_FALSE(replan.xlate.valid);
    EXPECT_EQ(replan.fetches.back().level, 3);
}

TEST_F(WalkerFixture, ResumesBelowDeepestCachedLevel)
{
    // Only the upper two levels are cached (deepestCached == 3): the
    // walk resumes at L2 and fetches exactly L2 and the leaf.
    map4K(0x1234000);
    mmu.fill(0x1234000, 4);
    mmu.fill(0x1234000, 3);
    ASSERT_EQ(mmu.deepestCached(0x1234000), 3);
    const WalkPlan plan = walker.plan(0x1234000);
    ASSERT_EQ(plan.fetches.size(), 2u);
    EXPECT_EQ(plan.fetches[0].level, 2);
    EXPECT_EQ(plan.fetches[1].level, 1);
}

TEST_F(WalkerFixture, OnlyLeafFetchedWhenL2Cached)
{
    // deepestCached == 2 is the deepest the MMU caches can help: only
    // the leaf PTE remains, and finishing such a single-fetch plan
    // must not cache anything new (the leaf never enters the MMU
    // caches).
    map4K(0x1234000);
    mmu.fill(0x1234000, 4);
    mmu.fill(0x1234000, 3);
    mmu.fill(0x1234000, 2);
    ASSERT_EQ(mmu.deepestCached(0x1234000), 2);
    const WalkPlan plan = walker.plan(0x1234000);
    ASSERT_EQ(plan.fetches.size(), 1u);
    EXPECT_EQ(plan.fetches[0].level, 1);
    walker.finish(0x1234000, plan);
    EXPECT_EQ(mmu.deepestCached(0x1234000), 2);
}

TEST_F(WalkerFixture, OneGigWalkEndsAtLevel3)
{
    const Addr va = Addr{1} << 30;
    table.map(va, PageSize::Page1G, os.allocFrame(PageSize::Page1G));
    const WalkPlan first = walker.plan(va);
    ASSERT_TRUE(first.xlate.valid);
    ASSERT_EQ(first.fetches.size(), 2u);
    EXPECT_EQ(first.fetches.back().level, 3);
    EXPECT_EQ(first.xlate.size, PageSize::Page1G);
    // finish() fills only the L4 entry; the L3 *leaf* stays uncached,
    // so the next walk still fetches exactly it.
    walker.finish(va, first);
    const WalkPlan second = walker.plan(va);
    ASSERT_EQ(second.fetches.size(), 1u);
    EXPECT_EQ(second.fetches[0].level, 3);
}

TEST_F(WalkerFixture, FinishNeverCachesLeafLevel)
{
    // finish() fills upper levels (2-4) only. A crafted plan whose
    // non-last fetch sits at the leaf level must leave the MMU caches
    // untouched — level 1 is below the fill boundary.
    map4K(0x1234000);
    const WalkPlan full = walker.plan(0x1234000);
    ASSERT_EQ(full.fetches.size(), 4u);
    WalkPlan crafted;
    crafted.xlate = full.xlate;
    crafted.fetches = {full.fetches[3], full.fetches[3]};
    ASSERT_EQ(crafted.fetches.size(), 2u);
    walker.finish(0x1234000, crafted);
    EXPECT_EQ(mmu.deepestCached(0x1234000), 5); // still cold
}

TEST_F(WalkerFixture, StatsCountWalksAndRefs)
{
    map4K(0x1234000);
    const WalkPlan plan = walker.plan(0x1234000);
    walker.finish(0x1234000, plan);
    walker.plan(0x1234000);
    EXPECT_EQ(walker.walks(), 2u);
    EXPECT_EQ(walker.ptRefsIssued(), 5u);  // 4 + 1
    EXPECT_EQ(walker.ptRefsSkipped(), 3u); // second walk skips 3
}

// The memoized translator must be invisible at the counter level: two
// walkers over identically mapped tables — one planning through the
// default memo, the reference through a one-slot memo that misses on
// every change of page — produce the same fetch plans, the same
// MMU-cache probe outcomes, and the same walker statistics for an
// arbitrary interleaved plan/finish/mutate sequence.
TEST(WalkerNeutrality, MemoAndReferenceWalkersAgree)
{
    struct Rig {
        OsMemory os{OsMemoryConfig{}};
        PageTable table{os};
        MmuCache mmu{MmuCacheConfig{}};
        Translator translator;
        Walker walker{translator, mmu};

        explicit Rig(const TranslatorConfig &cfg)
            : translator(table, cfg)
        {
        }
    };
    TranslatorConfig one_slot;
    one_slot.memoSlots = 1;
    one_slot.walkSlots = 1;
    Rig memo(TranslatorConfig{});
    Rig ref(one_slot);

    // Identical mutation + walk schedule on both rigs. Frame addresses
    // match because both OsMemory allocators see the same request
    // sequence.
    const auto onBoth = [&](auto &&step) {
        step(memo);
        step(ref);
    };
    const Addr kVas[] = {0x1234000, 0x1235000, 0x40000000,
                         Addr{2} << 30, Addr{7} << 39};
    onBoth([&](Rig &r) {
        r.table.map(0x1234000, PageSize::Page4K,
                    r.os.allocFrame(PageSize::Page4K));
        r.table.map(0x1235000, PageSize::Page4K,
                    r.os.allocFrame(PageSize::Page4K));
        r.table.map(0x40000000, PageSize::Page2M,
                    r.os.allocFrame(PageSize::Page2M));
        r.table.map(Addr{2} << 30, PageSize::Page1G,
                    r.os.allocFrame(PageSize::Page1G));
    });

    for (int round = 0; round < 6; ++round) {
        for (const Addr va : kVas) {
            const WalkPlan a = memo.walker.plan(va);
            const WalkPlan b = ref.walker.plan(va);
            EXPECT_EQ(a.xlate.valid, b.xlate.valid) << va;
            ASSERT_EQ(a.fetches.size(), b.fetches.size()) << va;
            for (std::size_t i = 0; i < a.fetches.size(); ++i) {
                EXPECT_EQ(a.fetches[i].level, b.fetches[i].level);
                EXPECT_EQ(a.fetches[i].pteAddr, b.fetches[i].pteAddr);
            }
            if (round % 2 == 0) {
                memo.walker.finish(va, a);
                ref.walker.finish(va, b);
            }
        }
        // Mid-sequence mutations: the memo must re-plan from the new
        // table state, with the same MMU-cache interaction.
        if (round == 2) {
            onBoth([&](Rig &r) {
                r.table.unmap(0x1234000);
                r.table.map(0x1234000, PageSize::Page4K,
                            r.os.allocFrame(PageSize::Page4K));
                r.table.promote(0x1200000, PageSize::Page2M,
                                r.os.allocFrame(PageSize::Page2M));
                // Promotion moves a leaf up into a level the MMU
                // caches hold: flush them, as a real shootdown would.
                r.mmu.reset();
            });
        }
    }

    EXPECT_EQ(memo.walker.walks(), ref.walker.walks());
    EXPECT_EQ(memo.walker.ptRefsIssued(), ref.walker.ptRefsIssued());
    EXPECT_EQ(memo.walker.ptRefsSkipped(), ref.walker.ptRefsSkipped());
    EXPECT_EQ(memo.mmu.hits(), ref.mmu.hits());
    EXPECT_EQ(memo.mmu.misses(), ref.mmu.misses());
    // Both memos engaged, and the one-slot memo missed more often: the
    // two rigs really took different memo paths to the same plans.
    EXPECT_GT(memo.translator.walkHits(), 0u);
    EXPECT_GT(ref.translator.walkMisses(), memo.translator.walkMisses());
}

} // namespace
} // namespace tempo
