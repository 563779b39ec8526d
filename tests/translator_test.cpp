/**
 * @file
 * Differential tests for the memoized translation fast path
 * (vm/translator.hh). The reference is the functional PageTable walk
 * itself: the memo must agree with it on every PTE, permission bit,
 * and page size at every instant, across arbitrary interleavings of
 * translations and page-table mutations (map/unmap/remap/protect/
 * superpage promotion), multiple address spaces, and all three page
 * sizes. TranslatorByteIdentity additionally pins the end-to-end
 * guarantee: full simulation results are byte-identical with the
 * default memo and with a one-slot memo that misses on every change of
 * page.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/tempo_system.hh"
#include "stats/json.hh"
#include "vm/os_memory.hh"
#include "vm/page_table.hh"
#include "vm/translator.hh"

namespace tempo {
namespace {

void
expectSameXlate(const Translation &got, const Translation &want,
                const char *what, Addr vaddr)
{
    EXPECT_EQ(got.valid, want.valid) << what << " @ " << vaddr;
    if (!got.valid || !want.valid)
        return;
    EXPECT_EQ(got.writable, want.writable) << what << " @ " << vaddr;
    EXPECT_EQ(got.pframe, want.pframe) << what << " @ " << vaddr;
    EXPECT_EQ(got.size, want.size) << what << " @ " << vaddr;
}

/** The unmemoized walk of @p vaddr: the oracle for Translator::walk(). */
CachedWalk
tableWalk(const PageTable &table, Addr vaddr)
{
    CachedWalk out;
    out.count = table.walkInto(vaddr, out.steps, out.xlate);
    return out;
}

void
expectSameWalk(const CachedWalk &got, const CachedWalk &want,
               const char *what, Addr vaddr)
{
    expectSameXlate(got.xlate, want.xlate, what, vaddr);
    ASSERT_EQ(got.count, want.count) << what << " @ " << vaddr;
    for (int i = 0; i < got.count; ++i) {
        EXPECT_EQ(got.steps[i].level, want.steps[i].level)
            << what << " step " << i << " @ " << vaddr;
        EXPECT_EQ(got.steps[i].pteAddr, want.steps[i].pteAddr)
            << what << " step " << i << " @ " << vaddr;
    }
}

/**
 * One address space under differential test: the table (the oracle), a
 * memoized translator over it, and a model of the mapped leaves so the
 * harness only generates legal mutations (map() asserts on double
 * mapping; promotion cannot split an existing larger superpage).
 */
struct DiffSpace {
    PageTable table;
    Translator memo;
    std::map<Addr, PageSize> leaves; //!< leaf base -> page size

    DiffSpace(OsMemory &os, const TranslatorConfig &memo_cfg)
        : table(os), memo(table, memo_cfg)
    {
    }

    /** Any mapped leaf intersecting [base, base+bytes)? */
    bool
    overlaps(Addr base, Addr bytes) const
    {
        auto it = leaves.lower_bound(base);
        if (it != leaves.end() && it->first < base + bytes)
            return true;
        if (it != leaves.begin()) {
            --it;
            if (it->first + pageBytes(it->second) > base)
                return true;
        }
        return false;
    }

    /** Is [base, base+bytes) inside a mapped leaf *larger* than bytes?
     * Promoting such a region would split a superpage — illegal. */
    bool
    insideLargerLeaf(Addr base, Addr bytes) const
    {
        auto it = leaves.lower_bound(base);
        if (it != leaves.end() && it->first == base)
            return pageBytes(it->second) > bytes;
        if (it != leaves.begin()) {
            --it;
            return it->first + pageBytes(it->second) > base
                   && pageBytes(it->second) > bytes;
        }
        return false;
    }

    /** Random mapped leaf, or leaves.end() when empty. */
    std::map<Addr, PageSize>::iterator
    randomLeaf(Rng &rng)
    {
        if (leaves.empty())
            return leaves.end();
        auto it = leaves.begin();
        std::advance(it, static_cast<long>(rng.below(leaves.size())));
        return it;
    }
};

struct HarnessParam {
    std::uint64_t seed;
    /** Shrink the memo to 2 slots so direct-mapped collisions and
     * evictions happen constantly. */
    bool tiny;

    friend std::ostream &
    operator<<(std::ostream &os, const HarnessParam &p)
    {
        return os << "seed" << p.seed << (p.tiny ? "Tiny" : "Full");
    }
};

class TranslatorDifferential
    : public ::testing::TestWithParam<HarnessParam>
{
};

/**
 * The centerpiece: >=10k randomized interleaved translate/mutate ops
 * per seed, across two address spaces sharing one frame allocator
 * (cross-AS aliasing), all three page sizes, with the functional
 * PageTable as the oracle on every single operation plus periodic full
 * sweeps of every mapped leaf.
 */
TEST_P(TranslatorDifferential, MemoMatchesFunctionalWalkUnderMutation)
{
    const HarnessParam param = GetParam();
    Rng rng(param.seed);
    OsMemory os{OsMemoryConfig{}};

    TranslatorConfig memo_cfg;
    if (param.tiny) {
        memo_cfg.memoSlots = 2;
        memo_cfg.walkSlots = 2;
    }
    DiffSpace space_a(os, memo_cfg);
    DiffSpace space_b(os, memo_cfg);
    DiffSpace *spaces[] = {&space_a, &space_b};

    constexpr Addr kUniverse = Addr{8} << 30; // 8 x 1GB regions
    constexpr int kOps = 12000;

    auto pickSize = [&]() -> PageSize {
        const std::uint64_t roll = rng.below(100);
        if (roll < 80)
            return PageSize::Page4K;
        if (roll < 96)
            return PageSize::Page2M;
        return PageSize::Page1G;
    };
    // Bias probes toward mapped pages so hits, same-page streaks, and
    // stale-entry hazards are exercised, not just cold misses.
    auto pickVaddr = [&](DiffSpace &s) -> Addr {
        if (!s.leaves.empty() && rng.chance(0.7)) {
            const auto it = s.randomLeaf(rng);
            return it->first + rng.below(pageBytes(it->second));
        }
        return rng.below(kUniverse);
    };
    auto probe = [&](DiffSpace &s, Addr vaddr) {
        const Translation want = s.table.translate(vaddr);
        expectSameXlate(s.memo.translate(vaddr), want, "memo", vaddr);
    };

    for (int op = 0; op < kOps; ++op) {
        DiffSpace &s = *spaces[rng.below(2)];
        const std::uint64_t action = rng.below(100);

        if (action < 40) {
            // Pure translation, often twice so the last-slot path and
            // the memo-hit path both fire.
            const Addr vaddr = pickVaddr(s);
            probe(s, vaddr);
            if (rng.chance(0.5))
                probe(s, vaddr);
        } else if (action < 55) {
            // Structural walk (valid or faulting).
            const Addr vaddr = pickVaddr(s);
            const CachedWalk want = tableWalk(s.table, vaddr);
            expectSameWalk(s.memo.walk(vaddr), want, "walk", vaddr);
            expectSameWalk(s.memo.walk(vaddr), want, "rewalk", vaddr);
        } else if (action < 67) {
            // map() a fresh page. Probe the address *before* mapping
            // too: a memoized negative must not mask the new mapping.
            const PageSize size = pickSize();
            const Addr base =
                alignDown(rng.below(kUniverse), pageBytes(size));
            if (s.overlaps(base, pageBytes(size)))
                continue;
            probe(s, base);
            const Addr frame = os.allocFrame(size);
            if (frame == kInvalidAddr)
                continue;
            s.table.map(base, size, frame, rng.chance(0.8));
            s.leaves.emplace(base, size);
            probe(s, base + rng.below(pageBytes(size)));
        } else if (action < 76) {
            // unmap() a live leaf (probed warm first).
            const auto it = s.randomLeaf(rng);
            if (it == s.leaves.end())
                continue;
            const Addr base = it->first;
            const Addr bytes = pageBytes(it->second);
            probe(s, base);
            EXPECT_TRUE(s.table.unmap(base + rng.below(bytes)));
            s.leaves.erase(it);
            probe(s, base);
        } else if (action < 84) {
            // remap() a live leaf to a different frame.
            const auto it = s.randomLeaf(rng);
            if (it == s.leaves.end())
                continue;
            const Addr base = it->first;
            const PageSize size = it->second;
            probe(s, base);
            const Addr frame = os.allocFrame(size);
            if (frame == kInvalidAddr)
                continue;
            s.table.remap(base, size, frame, rng.chance(0.8));
            probe(s, base + rng.below(pageBytes(size)));
        } else if (action < 90) {
            // protect(): flip the permission bit under a warm memo.
            const auto it = s.randomLeaf(rng);
            if (it == s.leaves.end())
                continue;
            const Addr base = it->first;
            probe(s, base);
            EXPECT_TRUE(s.table.protect(base, rng.chance(0.5)));
            probe(s, base);
        } else if (action < 96) {
            // Superpage promotion over whatever is mapped inside.
            const PageSize size =
                rng.chance(0.85) ? PageSize::Page2M : PageSize::Page1G;
            const Addr bytes = pageBytes(size);
            const Addr base = alignDown(rng.below(kUniverse), bytes);
            if (s.insideLargerLeaf(base, bytes))
                continue;
            const Addr frame = os.allocFrame(size);
            if (frame == kInvalidAddr)
                continue;
            // Warm the memo on a soon-to-be-covered 4K leaf.
            const auto it = s.leaves.lower_bound(base);
            if (it != s.leaves.end() && it->first < base + bytes)
                probe(s, it->first);
            s.table.promote(base, size, frame, rng.chance(0.8));
            s.leaves.erase(s.leaves.lower_bound(base),
                           s.leaves.lower_bound(base + bytes));
            s.leaves.emplace(base, size);
            probe(s, base + rng.below(bytes));
        } else if (action < 98) {
            // touched-bit fast path: may only claim "touched" for a
            // live mapping.
            const Addr vaddr = pickVaddr(s);
            if (s.memo.touchedFast(vaddr)) {
                EXPECT_TRUE(s.table.translate(vaddr).valid);
            }
            if (s.table.translate(vaddr).valid) {
                s.memo.noteTouched(vaddr);
                EXPECT_TRUE(s.memo.touchedFast(vaddr));
            }
            probe(s, vaddr);
        } else {
            s.memo.invalidateAll();
            probe(s, pickVaddr(s));
        }

        // Full invalidation-completeness sweep: every mapped leaf in
        // both spaces, through the memo, against a fresh walk.
        if ((op + 1) % 3000 == 0) {
            for (DiffSpace *sp : spaces) {
                for (const auto &[base, size] : sp->leaves) {
                    probe(*sp, base);
                    probe(*sp, base + rng.below(pageBytes(size)));
                    const CachedWalk want = tableWalk(sp->table, base);
                    expectSameWalk(sp->memo.walk(base), want, "sweep",
                                   base);
                }
            }
        }
    }

    // The memo actually memoized (the harness would pass vacuously if
    // every lookup missed through to the table).
    EXPECT_GT(space_a.memo.hits() + space_b.memo.hits(), 0u);
    EXPECT_GT(space_a.memo.misses() + space_b.memo.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TranslatorDifferential,
    ::testing::Values(HarnessParam{1, false}, HarnessParam{2, false},
                      HarnessParam{3, false}, HarnessParam{1, true},
                      HarnessParam{2, true}, HarnessParam{3, true}));

// ---------------------------------------------------------------------
// Directed edge cases.

struct TranslatorFixture : public ::testing::Test {
    OsMemory os{OsMemoryConfig{}};
    PageTable table{os};
    Translator memo{table};

    Addr
    map4K(Addr vaddr, bool writable = true)
    {
        const Addr frame = os.allocFrame(PageSize::Page4K);
        table.map(alignDown(vaddr, kPageBytes), PageSize::Page4K, frame,
                  writable);
        return frame;
    }
};

TEST_F(TranslatorFixture, UnmapThenRemapDifferentFrameSameCycle)
{
    const Addr va = 0x1234000;
    map4K(va);
    const Translation before = memo.translate(va);
    ASSERT_TRUE(before.valid);

    // Back-to-back mutation with no intervening lookup: the warm memo
    // entry must not survive into the remapped world.
    ASSERT_TRUE(table.unmap(va));
    const Addr fresh = os.allocFrame(PageSize::Page4K);
    table.map(va, PageSize::Page4K, fresh);

    const Translation after = memo.translate(va);
    ASSERT_TRUE(after.valid);
    EXPECT_EQ(after.pframe, fresh);
    EXPECT_NE(after.pframe, before.pframe);

    // Same via remap() in one call.
    const Addr fresh2 = os.allocFrame(PageSize::Page4K);
    memo.translate(va); // re-warm
    table.remap(va, PageSize::Page4K, fresh2);
    EXPECT_EQ(memo.translate(va).pframe, fresh2);
}

TEST_F(TranslatorFixture, PromotionCoversWarm4KEntries)
{
    const Addr region = 0x40000000; // 2MB-aligned
    std::vector<Addr> vas;
    for (int i = 0; i < 8; ++i)
        vas.push_back(region + static_cast<Addr>(i) * kPageBytes);
    for (const Addr va : vas) {
        map4K(va);
        ASSERT_TRUE(memo.translate(va).valid); // warm the memo
        memo.walk(va);                         // and the walk memo
    }

    const Addr super = os.allocFrame(PageSize::Page2M);
    table.promote(region, PageSize::Page2M, super);

    for (const Addr va : vas) {
        const Translation t = memo.translate(va);
        ASSERT_TRUE(t.valid) << va;
        EXPECT_EQ(t.size, PageSize::Page2M) << va;
        EXPECT_EQ(t.pframe, super) << va;
        const CachedWalk &walk = memo.walk(va);
        EXPECT_EQ(walk.count, 3) << va; // walk now ends at L2
        EXPECT_EQ(walk.steps[walk.count - 1].level, 2) << va;
    }
}

TEST_F(TranslatorFixture, CrossAddressSpaceAliasing)
{
    PageTable other_table{os};
    Translator other{other_table};
    const Addr va = 0x1234000;

    const Addr frame_a = map4K(va);
    const Addr frame_b = os.allocFrame(PageSize::Page4K);
    other_table.map(va, PageSize::Page4K, frame_b);
    ASSERT_NE(frame_a, frame_b);

    EXPECT_EQ(memo.translate(va).pframe, frame_a);
    EXPECT_EQ(other.translate(va).pframe, frame_b);

    // Mutating one space must neither corrupt nor invalidate the
    // other's memo.
    ASSERT_TRUE(other_table.unmap(va));
    EXPECT_FALSE(other.translate(va).valid);
    EXPECT_EQ(memo.translate(va).pframe, frame_a);

    const Addr frame_c = os.allocFrame(PageSize::Page4K);
    other_table.map(va, PageSize::Page4K, frame_c);
    EXPECT_EQ(other.translate(va).pframe, frame_c);
    EXPECT_EQ(memo.translate(va).pframe, frame_a);
}

TEST_F(TranslatorFixture, NegativeResultsAreNeverMemoized)
{
    const Addr va = 0x7654000;
    // Miss on an unmapped page, repeatedly: nothing may be cached.
    EXPECT_FALSE(memo.translate(va).valid);
    EXPECT_FALSE(memo.translate(va).valid);
    const CachedWalk &faulting = memo.walk(va);
    EXPECT_FALSE(faulting.xlate.valid);

    // map() does not bump the mutation epoch — only the no-negative-
    // memoization invariant makes this correct.
    const Addr frame = map4K(va);
    const Translation t = memo.translate(va);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pframe, frame);
    const CachedWalk &walk = memo.walk(va);
    ASSERT_TRUE(walk.xlate.valid);
    EXPECT_EQ(walk.count, 4);
}

TEST_F(TranslatorFixture, MapDoesNotInvalidateWarmEntries)
{
    const Addr va = 0x1234000;
    map4K(va);
    memo.translate(va); // miss, fills
    const std::uint64_t epoch = table.mutationEpoch();
    const std::uint64_t hits = memo.hits();

    map4K(0x9999000); // unrelated map: no epoch bump, no memo flush
    EXPECT_EQ(table.mutationEpoch(), epoch);
    ASSERT_TRUE(memo.translate(va).valid);
    EXPECT_GT(memo.hits(), hits);
}

TEST_F(TranslatorFixture, InvalidateAllFlushesButStaysCorrect)
{
    const Addr va = 0x1234000;
    const Addr frame = map4K(va);
    memo.translate(va);
    const std::uint64_t misses = memo.misses();

    memo.invalidateAll();
    const Translation t = memo.translate(va);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pframe, frame);
    EXPECT_GT(memo.misses(), misses); // the flush really flushed
}

TEST_F(TranslatorFixture, ProtectFlipsPermissionBitUnderWarmMemo)
{
    const Addr va = 0x1234000;
    map4K(va, /*writable=*/true);
    ASSERT_TRUE(memo.translate(va).writable);

    ASSERT_TRUE(table.protect(va, false));
    EXPECT_FALSE(memo.translate(va).writable);
    ASSERT_TRUE(table.protect(va, true));
    EXPECT_TRUE(memo.translate(va).writable);
}

TEST_F(TranslatorFixture, DirectMappedCollisionsStayCorrect)
{
    TranslatorConfig tiny;
    tiny.memoSlots = 2;
    tiny.walkSlots = 2;
    Translator small{table, tiny};

    // Four pages whose 4K VPNs all collide in a 2-slot memo.
    std::vector<Addr> vas;
    std::vector<Addr> frames;
    for (int i = 0; i < 4; ++i) {
        const Addr va = static_cast<Addr>(i) * 2 * kPageBytes;
        vas.push_back(va);
        frames.push_back(map4K(va));
    }
    for (int round = 0; round < 16; ++round) {
        const std::size_t i = static_cast<std::size_t>(round) % 4;
        const Translation t = small.translate(vas[i]);
        ASSERT_TRUE(t.valid);
        EXPECT_EQ(t.pframe, frames[i]);
    }
    EXPECT_GT(small.misses(), 4u); // evictions actually happened
}

TEST_F(TranslatorFixture, TouchedBitTracksMappingLifetime)
{
    const Addr va = 0x1234000;
    EXPECT_FALSE(memo.touchedFast(va)); // unmapped: nothing to claim

    map4K(va);
    EXPECT_FALSE(memo.touchedFast(va)); // mapped but never noted
    memo.noteTouched(va);
    EXPECT_TRUE(memo.touchedFast(va));
    EXPECT_TRUE(memo.touchedFast(va + 0x123)); // same granule

    ASSERT_TRUE(table.unmap(va));
    EXPECT_FALSE(memo.touchedFast(va)); // stale touched bit is dead
}

// ---------------------------------------------------------------------
// End-to-end byte identity: full simulations of two paper workloads,
// serialized through the bench JSON writer, must be byte-identical
// with the default memo and with the reference, a one-slot memo that
// misses on every change of page — the memo is invisible to the timing
// model, not merely statistically close.

TEST(TranslatorByteIdentity, BenchJsonIdenticalMemoVsReference)
{
    constexpr std::uint64_t kRefs = 20000;
    for (const char *workload : {"mcf", "astar.small"}) {
        for (const bool tempo_on : {false, true}) {
            SystemConfig cfg = SystemConfig::skylakeScaled();
            cfg.withTempo(tempo_on);
            SystemConfig ref_cfg = cfg;
            ref_cfg.translator.memoSlots = 1;
            ref_cfg.translator.walkSlots = 1;

            const RunResult memo_run = runWorkload(cfg, workload, kRefs);
            const RunResult ref_run =
                runWorkload(ref_cfg, workload, kRefs);

            const auto dumpOf = [&](const RunResult &r) {
                std::vector<stats::BenchPoint> points;
                points.push_back(toBenchPoint(
                    workload, {{"tempo", tempo_on ? "on" : "off"}}, r));
                return stats::benchJson("translator_identity", kRefs,
                                        42, points)
                    .dump();
            };
            EXPECT_EQ(dumpOf(memo_run), dumpOf(ref_run))
                << workload << " tempo=" << tempo_on;
        }
    }
}

} // namespace
} // namespace tempo
