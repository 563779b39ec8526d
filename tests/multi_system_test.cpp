#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_system.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 15000;

std::vector<std::string>
smallMix()
{
    return {"xsbench", "astar.small", "mcf", "hmmer.small"};
}

TEST(MultiSystem, AllAppsFinish)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult result = system.run(kRefs);
    ASSERT_EQ(result.appFinish.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(result.appFinish[i], 0u);
        EXPECT_EQ(result.appStats[i].refs, kRefs);
    }
    EXPECT_EQ(result.runtime,
              *std::max_element(result.appFinish.begin(),
                                result.appFinish.end()));
}

TEST(MultiSystem, SharingSlowsAppsDown)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const auto alone = aloneRuntimes(cfg, smallMix(), kRefs);
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult shared = system.run(kRefs);
    // Contention can only hurt: every app is at least as slow shared.
    for (std::size_t i = 0; i < alone.size(); ++i)
        EXPECT_GE(shared.appFinish[i] * 100, alone[i] * 95) << i;
    EXPECT_GE(shared.maxSlowdown(alone), 1.0);
}

TEST(MultiSystem, WeightedSpeedupBounded)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const auto alone = aloneRuntimes(cfg, smallMix(), kRefs);
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult result = system.run(kRefs);
    const double ws = result.weightedSpeedup(alone);
    EXPECT_GT(ws, 0.0);
    // Weighted speedup cannot exceed N (every app running alone-speed),
    // modulo tiny constructive-interference effects.
    EXPECT_LE(ws, 4.2);
}

TEST(MultiSystem, DeterministicAcrossRuns)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    MultiSystem a(cfg, makeMix(smallMix(), cfg.seed));
    MultiSystem b(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult ra = a.run(kRefs);
    const MultiResult rb = b.run(kRefs);
    EXPECT_EQ(ra.appFinish, rb.appFinish);
}

TEST(MultiSystem, BlissRunsAndBlacklists)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withSched(SchedKind::Bliss);
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult result = system.run(kRefs);
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
    MultiSystem base(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult rb = base.run(kRefs);

    SystemConfig tempo_cfg = cfg;
    tempo_cfg.withTempo(true);
    MultiSystem tempo(tempo_cfg, makeMix(smallMix(), tempo_cfg.seed));
    const MultiResult rt = tempo.run(kRefs);

    const auto alone = aloneRuntimes(cfg, smallMix(), kRefs);
    EXPECT_GE(rt.weightedSpeedup(alone), rb.weightedSpeedup(alone));
}

TEST(MultiSystem, SubRowBuffersWork)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.dram.subRowAlloc = SubRowAlloc::FOA;
    cfg.dram.subRowsForPrefetch = 2;
    cfg.withTempo(true);
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult result = system.run(kRefs);
    EXPECT_GT(result.runtime, 0u);
}

TEST(MultiSystem, PerAppStatsAreIndependent)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    MultiSystem system(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult result = system.run(kRefs);
    // xsbench (app 0) must walk far more than astar.small (app 1).
    EXPECT_GT(result.appStats[0].walks, result.appStats[1].walks * 2);
}

TEST(MultiSystem, WarmupWindowsWork)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    MultiSystem cold(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult cold_result = cold.run(kRefs);

    MultiSystem warmed(cfg, makeMix(smallMix(), cfg.seed));
    const MultiResult warm_result = warmed.run(kRefs / 2, kRefs / 2);
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
    MultiResult result;
    result.appFinish = {100, 200, 0, 50};
    result.runtime = 200;

    // App 0 is the only clean pair: alone[1] is zero (failed alone
    // run), alone has no entry for app 3, and app 2 never finished.
    const std::vector<Cycle> alone = {200, 0, 300};
    const double ws = result.weightedSpeedup(alone);
    EXPECT_TRUE(std::isfinite(ws));
    EXPECT_DOUBLE_EQ(ws, 2.0);

    const double slow = result.maxSlowdown(alone);
    EXPECT_TRUE(std::isfinite(slow));
    EXPECT_DOUBLE_EQ(slow, 0.5);
}

TEST(MultiResultMetrics, MetricsToleratEmptyAndOversizedAlone)
{
    MultiResult result;
    result.appFinish = {100, 200};

    EXPECT_DOUBLE_EQ(result.weightedSpeedup({}), 0.0);
    EXPECT_DOUBLE_EQ(result.maxSlowdown({}), 0.0);

    // More alone entries than apps: the tail is ignored, not read out
    // of bounds.
    const std::vector<Cycle> oversized = {100, 100, 999, 999};
    EXPECT_DOUBLE_EQ(result.weightedSpeedup(oversized), 1.5);
    EXPECT_DOUBLE_EQ(result.maxSlowdown(oversized), 2.0);

    // All-degenerate input collapses to zero, never NaN.
    const std::vector<Cycle> zeros = {0, 0};
    EXPECT_DOUBLE_EQ(result.weightedSpeedup(zeros), 0.0);
    EXPECT_DOUBLE_EQ(result.maxSlowdown(zeros), 0.0);
}

TEST(MultiSystemDeathTest, EmptyMixRejected)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    std::vector<std::unique_ptr<Workload>> empty;
    EXPECT_DEATH(MultiSystem(cfg, std::move(empty)), "empty");
}

} // namespace
} // namespace tempo
