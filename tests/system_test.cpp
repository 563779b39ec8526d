#include <gtest/gtest.h>

#include <stdexcept>

#include "core/tempo_system.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 30000;

TEST(System, RunsToCompletion)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "mcf", kRefs);
    EXPECT_EQ(result.core.refs, kRefs);
    EXPECT_GT(result.runtime, 0u);
    EXPECT_GT(result.energy.total(), 0.0);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult a = runWorkload(cfg, "xsbench", kRefs);
    const RunResult b = runWorkload(cfg, "xsbench", kRefs);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.core.walks, b.core.walks);
    EXPECT_EQ(a.dramPtw, b.dramPtw);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(System, SeedChangesTheRun)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult a = runWorkload(cfg, "xsbench", kRefs);
    SystemConfig cfg2 = SystemConfig::skylakeScaled();
    cfg2.withSeed(777);
    const RunResult b = runWorkload(cfg2, "xsbench", kRefs);
    EXPECT_NE(a.runtime, b.runtime);
}

TEST(System, BigDataWorkloadWalksOften)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "xsbench", kRefs);
    // Big-memory workloads thrash the TLB (paper Sec. 1).
    EXPECT_GT(result.core.walks, kRefs / 10);
    EXPECT_GT(result.core.walksWithLeafDram, 0u);
}

TEST(System, SmallWorkloadWalksRarely)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result =
        runWorkload(cfg, "swaptions.small", kRefs);
    EXPECT_LT(result.report.get("tlb.miss_rate"), 0.15);
}

TEST(System, RuntimeFractionsAreSane)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "graph500", kRefs);
    const double total = result.fracRuntimePtwDram()
        + result.fracRuntimeReplayDram() + result.fracRuntimeOtherDram();
    EXPECT_GT(total, 0.0);
    EXPECT_LE(total, 1.0);
    const double dram_total = result.fracDramPtw()
        + result.fracDramReplay() + result.fracDramOther();
    EXPECT_NEAR(dram_total, 1.0, 1e-9);
}

TEST(System, TempoDoesNotChangeTheTrace)
{
    SystemConfig base = SystemConfig::skylakeScaled();
    const RunResult off = runWorkload(base, "canneal", kRefs);
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    const RunResult on = runWorkload(cfg, "canneal", kRefs);
    // Same references, same walks, same footprint — only timing moved.
    EXPECT_EQ(off.core.refs, on.core.refs);
    EXPECT_EQ(off.core.pageFaults, on.core.pageFaults);
    EXPECT_DOUBLE_EQ(off.superpageCoverage, on.superpageCoverage);
}

TEST(System, TempoPrefetchCountMatchesTriggers)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    TempoSystem system(cfg, makeWorkload("xsbench", cfg.seed));
    const RunResult result = system.run(kRefs);
    const auto &mc = system.machine().mc;
    // Non-speculative triggering: every issued prefetch corresponds to
    // a tagged leaf-PT DRAM access, minus drops and faults.
    EXPECT_EQ(mc.tempoPrefetchesIssued() + mc.tempoPrefetchesDropped()
                  + mc.tempoFaultSuppressed(),
              result.core.leafPtDramAccesses);
}

TEST(System, ReplayServiceBreakdownAddsUp)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    const RunResult result = runWorkload(cfg, "lsh", kRefs);
    const CoreStats &core = result.core;
    EXPECT_EQ(core.replayAfterDramWalk,
              core.replayLlcHits + core.replayPrivateHits
                  + core.replayMerged + core.replayRowHits
                  + core.replayArray);
}

TEST(System, ImpGeneratesPrefetchTraffic)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("imp");
    TempoSystem system(cfg, makeWorkload("spmv", cfg.seed));
    const RunResult result = system.run(kRefs);
    EXPECT_GT(result.core.impIssued, 0u);
    EXPECT_GT(system.machine().mc.served(ReqKind::ImpPrefetch), 0u);
}

TEST(System, ImpPrefetchesCanFaultAndAreSuppressed)
{
    // IMP prefetches to not-yet-touched pages exercise TEMPO's page
    // fault suppression (paper Sec. 4.5).
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("imp").withTempo(true);
    TempoSystem system(cfg, makeWorkload("xsbench", cfg.seed));
    const RunResult result = system.run(kRefs);
    EXPECT_GT(result.core.impFaults, 0u);
}

TEST(System, EnergyBreakdownDominatedByStatic)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "mcf", kRefs);
    // The paper's energy savings work through runtime (static energy);
    // the model must reflect that structure.
    EXPECT_GT(result.energy.coreStatic + result.energy.dramStatic,
              result.energy.dramDynamic);
}

TEST(System, ReportIsRich)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "sgms", 10000);
    for (const char *key :
         {"refs", "walks", "tlb.miss_rate", "dram.row_hit_rate",
          "mc.replay.served", "cache.llc.hit_rate",
          "vm.superpage_coverage", "energy.total"}) {
        EXPECT_TRUE(result.report.has(key)) << key;
    }
}

TEST(System, PageFaultLatencyExtendsRuntime)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult fast = runWorkload(cfg, "illustris", 10000);
    SystemConfig slow_cfg = SystemConfig::skylakeScaled();
    slow_cfg.pageFaultLatency = 2000;
    const RunResult slow = runWorkload(slow_cfg, "illustris", 10000);
    EXPECT_GT(slow.runtime, fast.runtime);
}

TEST(System, WithShardsAcceptsOnlyTheInlineEngine)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const std::uint64_t before = cfg.digest();
    EXPECT_EQ(&cfg.withShards(0), &cfg);
    EXPECT_EQ(cfg.digest(), before);
    EXPECT_THROW(cfg.withShards(1), std::invalid_argument);
    EXPECT_THROW(cfg.withShards(4), std::invalid_argument);
}

TEST(SystemDeathTest, EmptyRunIsRejected)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    TempoSystem system(cfg, makeWorkload("mcf", 1));
    EXPECT_DEATH(system.run(0), "empty run");
}

} // namespace
} // namespace tempo
