#include <gtest/gtest.h>

#include "cli/config_file.hh"
#include "core/system.hh"
#include "prefetch/imp.hh"

namespace tempo {
namespace {

ImpConfig
deterministic()
{
    ImpConfig cfg;
    // Deterministic behaviour for the structural tests; the
    // coverage/accuracy knobs get their own tests below.
    cfg.coverage = 1.0;
    cfg.accuracy = 1.0;
    return cfg;
}

// IMP runs only when prefetch.engines lists it: with "[imp] enabled =
// false" an indirect workload sends no IMP prefetch to memory, while
// the listed twin does.
TEST(Imp, DisabledNeverPrefetches)
{
    SystemConfig off = SystemConfig::skylakeScaled();
    cli::setConfigKey(off, "imp.enabled", "false");
    EXPECT_TRUE(off.prefetch.engines.empty());
    System system(off, makeWorkload("spmv", off.seed));
    EXPECT_EQ(system.run(5000).core().impIssued, 0u);
    EXPECT_EQ(system.machine().mc.served(ReqKind::ImpPrefetch), 0u);
    SystemConfig on = SystemConfig::skylakeScaled();
    cli::setConfigKey(on, "imp.enabled", "true");
    EXPECT_GT(runWorkload(on, "spmv", 5000).core().impIssued, 0u);
}

TEST(Imp, IgnoresNonIndirectRefs)
{
    ImpPrefetcher imp(deterministic());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(imp.observe(1, false, 0x1000), kInvalidAddr);
    EXPECT_EQ(imp.trainedStreams(), 0u);
}

TEST(Imp, TrainsThenPrefetches)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 4;
    ImpPrefetcher imp(cfg);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(imp.observe(1, true, 0x1000 + i), kInvalidAddr) << i;
    EXPECT_EQ(imp.trainedStreams(), 1u);
    EXPECT_EQ(imp.observe(1, true, 0x5000), 0x5000u);
    EXPECT_EQ(imp.issued(), 1u);
}

TEST(Imp, StreamsTrainIndependently)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 2;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1);
    imp.observe(1, true, 0x2);
    // Stream 1 trained; stream 2 still cold.
    EXPECT_NE(imp.observe(1, true, 0x3), kInvalidAddr);
    EXPECT_EQ(imp.observe(2, true, 0x4), kInvalidAddr);
}

TEST(Imp, TableCapacityEvictsLru)
{
    ImpConfig cfg = deterministic();
    cfg.prefetchTableEntries = 2;
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1); // trains stream 1
    imp.observe(2, true, 0x2); // trains stream 2
    imp.observe(3, true, 0x3); // evicts stream 1 (LRU)
    // Stream 1 must retrain from scratch.
    EXPECT_EQ(imp.observe(1, true, 0x5), kInvalidAddr);
}

TEST(Imp, UnknownFutureYieldsNoPrefetch)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1);
    EXPECT_EQ(imp.observe(1, true, kInvalidAddr), kInvalidAddr);
}

TEST(Imp, ReportCountsIssued)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1);
    imp.observe(1, true, 0x2);
    imp.observe(1, true, 0x3);
    stats::Report report;
    imp.report(report);
    EXPECT_EQ(report.get("issued"), 2.0);
    EXPECT_EQ(report.get("trained_streams"), 1.0);
}

TEST(Imp, CoverageLimitsIssueRate)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 1;
    cfg.coverage = 0.5;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1000);
    const int trials = 4000;
    for (int i = 0; i < trials; ++i)
        imp.observe(1, true, 0x1000 + i);
    EXPECT_NEAR(static_cast<double>(imp.issued()) / trials, 0.5, 0.05);
}

TEST(Imp, AccuracyPerturbsTargets)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 1;
    cfg.accuracy = 0.0; // every prefetch is wrong
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x100000);
    int wrong = 0, total = 0;
    for (int i = 0; i < 200; ++i) {
        const Addr target = imp.observe(1, true, 0x100000);
        if (target == kInvalidAddr)
            continue;
        ++total;
        if (target != 0x100000) {
            ++wrong;
            // Wrong targets land on a different page — the TLB-thrash
            // property the TEMPO paper attributes to IMP.
            EXPECT_NE(vpn4K(target), vpn4K(Addr{0x100000}));
        }
    }
    EXPECT_GT(total, 0);
    EXPECT_EQ(wrong, total);
    EXPECT_EQ(imp.mispredicted(), static_cast<std::uint64_t>(wrong));
}

TEST(Imp, FullAccuracyNeverMispredicts)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x100000);
    for (int i = 0; i < 200; ++i) {
        const Addr target = imp.observe(1, true, Addr{0x100000} + i);
        EXPECT_EQ(target, Addr{0x100000} + i);
    }
    EXPECT_EQ(imp.mispredicted(), 0u);
}

TEST(Imp, EvictionPressureSeparatesTrainEventsFromLiveStreams)
{
    // Regression: "trained_streams" used to count training completions
    // cumulatively, so under table pressure an evicted-then-retrained
    // stream was double-counted and the stat could exceed the table
    // size. Live residency and cumulative completions are now separate.
    ImpConfig cfg = deterministic();
    cfg.prefetchTableEntries = 2;
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    for (std::uint32_t stream = 1; stream <= 5; ++stream)
        imp.observe(stream, true, 0x1000 + stream);
    EXPECT_EQ(imp.trainEvents(), 5u);
    EXPECT_EQ(imp.trainedStreams(), 2u); // bounded by the table
    stats::Report report;
    imp.report(report);
    EXPECT_EQ(report.get("train_events"), 5.0);
    EXPECT_EQ(report.get("trained_streams"), 2.0);
}

TEST(Imp, RetrainAfterEvictionCountsANewEvent)
{
    ImpConfig cfg = deterministic();
    cfg.prefetchTableEntries = 1;
    cfg.trainThreshold = 1;
    ImpPrefetcher imp(cfg);
    imp.observe(1, true, 0x1); // trains stream 1
    imp.observe(2, true, 0x2); // evicts 1, trains 2
    imp.observe(1, true, 0x3); // retrains 1: a second event for it
    EXPECT_EQ(imp.trainEvents(), 3u);
    EXPECT_EQ(imp.trainedStreams(), 1u);
}

class ImpThresholdSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ImpThresholdSweep, ExactlyThresholdObservationsToTrain)
{
    ImpConfig cfg = deterministic();
    cfg.trainThreshold = GetParam();
    ImpPrefetcher imp(cfg);
    for (unsigned i = 0; i < GetParam(); ++i)
        EXPECT_EQ(imp.observe(9, true, 0x100), kInvalidAddr);
    EXPECT_NE(imp.observe(9, true, 0x100), kInvalidAddr);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ImpThresholdSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace tempo
