#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/experiment.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 30000;

TEST(System, RunsToCompletion)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "mcf", kRefs);
    EXPECT_EQ(result.core().refs, kRefs);
    EXPECT_GT(result.runtime, 0u);
    EXPECT_GT(result.energy.total(), 0.0);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult a = runWorkload(cfg, "xsbench", kRefs);
    const RunResult b = runWorkload(cfg, "xsbench", kRefs);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.core().walks, b.core().walks);
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
    EXPECT_GT(result.core().walks, kRefs / 10);
    EXPECT_GT(result.core().walksWithLeafDram, 0u);
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
    EXPECT_EQ(off.core().refs, on.core().refs);
    EXPECT_EQ(off.core().pageFaults, on.core().pageFaults);
    EXPECT_DOUBLE_EQ(off.superpageCoverage, on.superpageCoverage);
}

TEST(System, TempoPrefetchCountMatchesTriggers)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    System system(cfg, makeWorkload("xsbench", cfg.seed));
    const RunResult result = system.run(kRefs);
    const auto &mc = system.machine().mc;
    // Non-speculative triggering: every issued prefetch corresponds to
    // a tagged leaf-PT DRAM access, minus drops and faults.
    EXPECT_EQ(mc.tempoPrefetchesIssued() + mc.tempoPrefetchesDropped()
                  + mc.tempoFaultSuppressed(),
              result.core().leafPtDramAccesses);
}

TEST(System, ReplayServiceBreakdownAddsUp)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    const RunResult result = runWorkload(cfg, "lsh", kRefs);
    const CoreStats &core = result.core();
    EXPECT_EQ(core.replayAfterDramWalk,
              core.replayLlcHits + core.replayPrivateHits
                  + core.replayMerged + core.replayRowHits
                  + core.replayArray);
}

TEST(System, ImpGeneratesPrefetchTraffic)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("imp");
    System system(cfg, makeWorkload("spmv", cfg.seed));
    const RunResult result = system.run(kRefs);
    EXPECT_GT(result.core().impIssued, 0u);
    EXPECT_GT(system.machine().mc.served(ReqKind::ImpPrefetch), 0u);
}

TEST(System, ImpPrefetchesCanFaultAndAreSuppressed)
{
    // IMP prefetches to not-yet-touched pages exercise TEMPO's page
    // fault suppression (paper Sec. 4.5).
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("imp").withTempo(true);
    System system(cfg, makeWorkload("xsbench", cfg.seed));
    const RunResult result = system.run(kRefs);
    EXPECT_GT(result.core().impFaults, 0u);
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
    System system(cfg, makeWorkload("mcf", 1));
    EXPECT_DEATH(system.run(0), "empty run");
}

// Multiprogrammed runs: N > 1 apps, one core each, on one System.

constexpr std::uint64_t kMixRefs = 15000;

WorkloadList
smallMix()
{
    return {"xsbench", "astar.small", "mcf", "hmmer.small"};
}

/** smallMix() under @p cfg, for alonePoints()/aloneRuntimes(). */
ExperimentPoint
smallMixPoint(const SystemConfig &cfg)
{
    ExperimentPoint point;
    point.workload = smallMix();
    point.config = cfg;
    point.refs = kMixRefs;
    return point;
}

RunResult
runMix(const SystemConfig &cfg, std::uint64_t refs = kMixRefs,
       std::uint64_t warmup = 0)
{
    System system(cfg, makeMix(smallMix(), cfg.seed));
    return system.run(refs, warmup);
}

TEST(MultiSystem, AllAppsFinish)
{
    const RunResult result = runMix(SystemConfig::skylakeScaled());
    ASSERT_EQ(result.appFinish.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(result.appFinish[i], 0u);
        EXPECT_EQ(result.appStats[i].refs, kMixRefs);
    }
    EXPECT_EQ(result.runtime,
              *std::max_element(result.appFinish.begin(),
                                result.appFinish.end()));
}

TEST(MultiSystem, SharingSlowsAppsDown)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const auto alone = aloneRuntimes(smallMixPoint(cfg));
    const RunResult shared = runMix(cfg);
    // Contention can only hurt: every app is at least as slow shared.
    for (std::size_t i = 0; i < alone.size(); ++i)
        EXPECT_GE(shared.appFinish[i] * 100, alone[i] * 95) << i;
    EXPECT_GE(maxSlowdown(shared.appFinish, alone), 1.0);
}

TEST(MultiSystem, WeightedSpeedupBounded)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const auto alone = aloneRuntimes(smallMixPoint(cfg));
    const RunResult result = runMix(cfg);
    const double ws = weightedSpeedup(result.appFinish, alone);
    EXPECT_GT(ws, 0.0);
    // Weighted speedup cannot exceed N (every app running alone-speed),
    // modulo tiny constructive-interference effects.
    EXPECT_LE(ws, 4.2);
}

TEST(MultiSystem, DeterministicAcrossRuns)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    EXPECT_EQ(runMix(cfg).appFinish, runMix(cfg).appFinish);
}

TEST(MultiSystem, BlissRunsAndBlacklists)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withSched(SchedKind::Bliss);
    System system(cfg, makeMix(smallMix(), cfg.seed));
    const RunResult result = system.run(kMixRefs);
    EXPECT_GT(result.runtime, 0u);
    auto *bliss =
        dynamic_cast<BlissScheduler *>(&system.machine().mc.scheduler());
    ASSERT_NE(bliss, nullptr);
    // With a memory-hungry app in the mix, blacklisting must trigger.
    EXPECT_GT(bliss->blacklistEvents(), 0u);
}

TEST(MultiSystem, TempoHelpsUnderBliss)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withSched(SchedKind::Bliss);
    const RunResult rb = runMix(cfg);

    SystemConfig tempo_cfg = cfg;
    tempo_cfg.withTempo(true);
    const RunResult rt = runMix(tempo_cfg);

    const auto alone = aloneRuntimes(smallMixPoint(cfg));
    EXPECT_GE(weightedSpeedup(rt.appFinish, alone),
              weightedSpeedup(rb.appFinish, alone));
}

TEST(MultiSystem, SubRowBuffersWork)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.dram.subRowAlloc = SubRowAlloc::FOA;
    cfg.dram.subRowsForPrefetch = 2;
    cfg.withTempo(true);
    EXPECT_GT(runMix(cfg).runtime, 0u);
}

TEST(MultiSystem, PerAppStatsAreIndependent)
{
    const RunResult result = runMix(SystemConfig::skylakeScaled());
    // xsbench (app 0) must walk far more than astar.small (app 1).
    EXPECT_GT(result.appStats[0].walks, result.appStats[1].walks * 2);
}

TEST(MultiSystem, WarmupWindowsWork)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult cold_result = runMix(cfg);
    const RunResult warm_result = runMix(cfg, kMixRefs / 2, kMixRefs / 2);
    ASSERT_EQ(warm_result.appFinish.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        // Per-app measured windows are shorter than the full cold run.
        EXPECT_LT(warm_result.appFinish[i], cold_result.appFinish[i]);
        EXPECT_GT(warm_result.appFinish[i], 0u);
    }
}

// The fairness metrics must tolerate ragged alone-runtime input: an
// alone run that failed or was skipped leaves a zero or a missing
// entry, and the mix summary must stay finite instead of dividing by
// zero or walking off the end.
TEST(MultiResultMetrics, WeightedSpeedupSkipsDegenerateEntries)
{
    const std::vector<Cycle> finish = {100, 200, 0, 50};

    // App 0 is the only clean pair: alone[1] is zero (failed alone
    // run), alone has no entry for app 3, and app 2 never finished.
    const std::vector<Cycle> alone = {200, 0, 300};
    const double ws = weightedSpeedup(finish, alone);
    EXPECT_TRUE(std::isfinite(ws));
    EXPECT_DOUBLE_EQ(ws, 2.0);

    const double slow = maxSlowdown(finish, alone);
    EXPECT_TRUE(std::isfinite(slow));
    EXPECT_DOUBLE_EQ(slow, 0.5);
}

TEST(MultiResultMetrics, MetricsToleratEmptyAndOversizedAlone)
{
    const std::vector<Cycle> finish = {100, 200};

    EXPECT_DOUBLE_EQ(weightedSpeedup(finish, {}), 0.0);
    EXPECT_DOUBLE_EQ(maxSlowdown(finish, {}), 0.0);

    // More alone entries than apps: the tail is ignored, not read out
    // of bounds.
    const std::vector<Cycle> oversized = {100, 100, 999, 999};
    EXPECT_DOUBLE_EQ(weightedSpeedup(finish, oversized), 1.5);
    EXPECT_DOUBLE_EQ(maxSlowdown(finish, oversized), 2.0);

    // All-degenerate input collapses to zero, never NaN.
    const std::vector<Cycle> zeros = {0, 0};
    EXPECT_DOUBLE_EQ(weightedSpeedup(finish, zeros), 0.0);
    EXPECT_DOUBLE_EQ(maxSlowdown(finish, zeros), 0.0);
}

TEST(MultiSystemDeathTest, EmptyMixRejected)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    std::vector<std::unique_ptr<Workload>> empty;
    EXPECT_DEATH(System(cfg, std::move(empty)), "empty");
}

} // namespace
} // namespace tempo
