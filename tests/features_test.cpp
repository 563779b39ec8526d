/**
 * @file
 * Tests for the substrate features beyond the paper's core mechanism:
 * warmup measurement windows, dirty-line writeback traffic, and DRAM
 * refresh.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "dram/dram.hh"

namespace tempo {
namespace {

// --- Dirty bits / writebacks ---

TEST(DirtyTracking, InsertTrackedReportsDirtyVictims)
{
    SetAssocCache cache(256, 2); // 2 sets x 2 ways
    const Addr a = 0 * 128, b = 2 * 128, c = 4 * 128; // same set
    cache.insertTracked(a, true);
    cache.insertTracked(b, false);
    const SetAssocCache::Victim victim = cache.insertTracked(c, false);
    EXPECT_EQ(victim.addr, a);
    EXPECT_TRUE(victim.dirty);
}

TEST(DirtyTracking, MarkDirtySticks)
{
    SetAssocCache cache(4096, 4);
    cache.insert(0x1000);
    EXPECT_FALSE(cache.isDirty(0x1000));
    EXPECT_TRUE(cache.markDirty(0x1000));
    EXPECT_TRUE(cache.isDirty(0x1000));
    EXPECT_FALSE(cache.markDirty(0x9999000)); // absent
}

TEST(DirtyTracking, ReinsertMergesDirtiness)
{
    SetAssocCache cache(4096, 4);
    cache.insertTracked(0x1000, true);
    cache.insertTracked(0x1000, false); // refresh must not clean it
    EXPECT_TRUE(cache.isDirty(0x1000));
}

TEST(DirtyTracking, HierarchyWriteMakesLlcEvictionDirty)
{
    CacheHierarchyConfig cfg;
    SharedLlc llc(cfg.llc);
    CacheHierarchy hierarchy(cfg, &llc);
    hierarchy.fill(0x4000, /*is_write=*/true);
    EXPECT_TRUE(llc.cache().isDirty(lineAddr(Addr{0x4000})));
}

TEST(DirtyTracking, FillReturnsDirtyLlcVictim)
{
    CacheHierarchyConfig cfg;
    cfg.llc = {4096, 1, 42}; // direct-mapped tiny LLC: easy conflicts
    cfg.l1 = {4096, 1, 4};
    cfg.l2 = {4096, 1, 14};
    SharedLlc llc(cfg.llc);
    CacheHierarchy hierarchy(cfg, &llc);
    const Addr a = 0x0;
    const Addr b = 0x1000; // same LLC set (64 sets * 64B = 4096 span)
    hierarchy.fill(a, true);
    const Addr writeback = hierarchy.fill(b, false);
    EXPECT_EQ(writeback, a);
}

TEST(Writebacks, WriteHeavyWorkloadGeneratesThem)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System system(cfg, makeWorkload("canneal", cfg.seed));
    system.run(20000);
    EXPECT_GT(system.machine().mc.served(ReqKind::Writeback), 0u);
}

TEST(Writebacks, ReadOnlyWorkloadGeneratesNone)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System system(cfg, makeWorkload("lsh", cfg.seed));
    system.run(20000);
    EXPECT_EQ(system.machine().mc.served(ReqKind::Writeback), 0u);
}

// --- Refresh ---

TEST(Refresh, ClosesOpenRows)
{
    DramConfig cfg;
    cfg.rowPolicy = RowPolicyKind::Open;
    cfg.refreshEnabled = true;
    DramDevice dram(cfg);
    dram.access(0x4000, false, false, 0, 0, 0);
    ASSERT_TRUE(dram.wouldRowHit(0x4000));
    // Access long after a refresh interval: the row must have closed.
    const DramResult result = dram.access(
        0x4000, false, false, 0, cfg.tREFI * cfg.totalBanks(), 0);
    EXPECT_EQ(result.event, RowEvent::Miss);
    EXPECT_GT(dram.energy().refreshes, 0u);
}

TEST(Refresh, DisabledMeansNoRefreshes)
{
    DramConfig cfg;
    cfg.rowPolicy = RowPolicyKind::Open;
    cfg.refreshEnabled = false;
    DramDevice dram(cfg);
    dram.access(0x4000, false, false, 0, 0, 0);
    const DramResult result =
        dram.access(0x4000, false, false, 0, cfg.tREFI * 100, 0);
    EXPECT_EQ(result.event, RowEvent::Hit);
    EXPECT_EQ(dram.energy().refreshes, 0u);
}

TEST(Refresh, BankBusyDuringRefresh)
{
    DramConfig cfg;
    cfg.refreshEnabled = true;
    DramDevice dram(cfg);
    // First refresh of bank 0 occurs at tREFI. An access arriving just
    // then waits out tRFC.
    const DramResult result =
        dram.access(0, false, false, 0, cfg.tREFI, 0);
    EXPECT_GE(result.start, cfg.tREFI + cfg.tRFC);
}

TEST(Refresh, CostsRuntimeButPreservesTempoWin)
{
    SystemConfig off_cfg = SystemConfig::skylakeScaled();
    off_cfg.dram.refreshEnabled = false;
    SystemConfig on_cfg = SystemConfig::skylakeScaled();
    on_cfg.dram.refreshEnabled = true;
    const RunResult without = runWorkload(off_cfg, "mcf", 20000);
    const RunResult with = runWorkload(on_cfg, "mcf", 20000);
    EXPECT_GE(with.runtime, without.runtime);
}

// --- Warmup windows ---

TEST(Warmup, MeasuredWindowIsShorterThanFullRun)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System cold(cfg, makeWorkload("mcf", cfg.seed));
    const RunResult cold_result = cold.run(30000);

    System warmed(cfg, makeWorkload("mcf", cfg.seed));
    const RunResult warm_result = warmed.run(20000, /*warmup=*/10000);
    EXPECT_LT(warm_result.runtime, cold_result.runtime);
    // Roughly the measured refs (the window boundary is fuzzy by the
    // MLP window's worth of in-flight references).
    EXPECT_NEAR(static_cast<double>(warm_result.core().refs), 20000.0,
                64.0);
}

TEST(Warmup, ReducesApparentColdMissRates)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System cold(cfg, makeWorkload("gobmk.small", cfg.seed));
    const RunResult cold_result = cold.run(20000);

    System warmed(cfg, makeWorkload("gobmk.small", cfg.seed));
    const RunResult warm_result = warmed.run(20000, 20000);
    // A small, cacheable workload looks much better once warmed.
    EXPECT_LT(warm_result.report.get("tlb.miss_rate"),
              cold_result.report.get("tlb.miss_rate"));
}

TEST(Warmup, ZeroWarmupIsIdentityPath)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System a(cfg, makeWorkload("sgms", cfg.seed));
    System b(cfg, makeWorkload("sgms", cfg.seed));
    EXPECT_EQ(a.run(15000).runtime, b.run(15000, 0).runtime);
}

TEST(Warmup, StatsExcludeWarmupTraffic)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    System system(cfg, makeWorkload("xsbench", cfg.seed));
    const RunResult result = system.run(10000, 10000);
    // Walk counts reflect only the measured window (about half of what
    // a 20000-ref cold run would report).
    EXPECT_LT(result.core().walks, 10200u);
}

} // namespace
} // namespace tempo
