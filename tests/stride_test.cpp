#include <gtest/gtest.h>

#include "cli/config_file.hh"
#include "core/tempo_system.hh"
#include "prefetch/stride.hh"

namespace tempo {
namespace {

// A stride engine runs only when prefetch.engines lists it: with
// "[stride] enabled = false" a strided workload issues no stride
// prefetch, while the listed twin does.
TEST(Stride, DisabledIssuesNothing)
{
    SystemConfig off = SystemConfig::skylakeScaled();
    cli::setConfigKey(off, "stride.enabled", "false");
    EXPECT_TRUE(off.prefetch.engines.empty());
    EXPECT_EQ(runWorkload(off, "sgms", 5000).core.strideIssued, 0u);
    SystemConfig on = SystemConfig::skylakeScaled();
    cli::setConfigKey(on, "stride.enabled", "true");
    EXPECT_GT(runWorkload(on, "sgms", 5000).core.strideIssued, 0u);
}

TEST(Stride, DetectsConstantStride)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 2;
    cfg.degree = 1;
    cfg.distance = 4;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    // addr, addr+64, addr+128: two matching strides -> confident.
    pf.observe(1, 0x1000, out);
    EXPECT_TRUE(out.empty());
    pf.observe(1, 0x1040, out);
    EXPECT_TRUE(out.empty()); // first stride observation
    pf.observe(1, 0x1080, out);
    EXPECT_TRUE(out.empty()); // confidence 1 < 2
    pf.observe(1, 0x10c0, out);
    ASSERT_EQ(out.size(), 1u); // confidence 2: prefetch
    EXPECT_EQ(out[0], 0x10c0 + 4 * 64u);
}

TEST(Stride, DegreeIssuesConsecutiveSteps)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 3;
    cfg.distance = 2;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0x1000, out);
    pf.observe(1, 0x1100, out);
    pf.observe(1, 0x1200, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x1200 + 2 * 0x100u);
    EXPECT_EQ(out[1], 0x1200 + 3 * 0x100u);
    EXPECT_EQ(out[2], 0x1200 + 4 * 0x100u);
}

TEST(Stride, IrregularStreamNeverTriggers)
{
    StridePrefetcher pf{StrideConfig{}};
    std::vector<Addr> out;
    std::uint64_t x = 99;
    for (int i = 0; i < 500; ++i) {
        x = x * 6364136223846793005ull + 1;
        pf.observe(1, x % (1ull << 30), out);
        EXPECT_TRUE(out.empty()) << i;
    }
}

TEST(Stride, StrideChangeResetsConfidence)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 2;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0x1000, out);
    pf.observe(1, 0x1040, out);
    pf.observe(1, 0x1080, out);
    pf.observe(1, 0x2000, out); // break the pattern
    EXPECT_TRUE(out.empty());
    pf.observe(1, 0x2040, out);
    EXPECT_TRUE(out.empty()); // must retrain
}

TEST(Stride, NegativeStridesWork)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 1;
    cfg.distance = 1;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0x10000, out);
    pf.observe(1, 0x10000 - 64, out);
    pf.observe(1, 0x10000 - 128, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x10000 - 192u);
}

TEST(Stride, HighAddressesTrainAndIssue)
{
    // Regression: the target checks used signed comparisons, so any
    // vaddr at or above 2^63 looked negative and streams up there never
    // prefetched. Addresses have no sign.
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 1;
    cfg.distance = 1;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    const Addr base = Addr{1} << 63;
    pf.observe(1, base, out);
    pf.observe(1, base + 64, out);
    pf.observe(1, base + 128, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], base + 192);
}

TEST(Stride, NegativeStrideCrossingZeroDropsWrap)
{
    // Regression: a descending stream near address 0 used to wrap
    // below zero and prefetch a bogus top-of-address-space target; the
    // wrap is now detected and the target dropped (counted).
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 1;
    cfg.distance = 4;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0x140, out);
    pf.observe(1, 0x100, out);
    pf.observe(1, 0xc0, out); // target 0xc0 - 4*64 underflows
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.issued(), 0u);
    stats::Report report;
    pf.report(report);
    EXPECT_EQ(report.get("wrap_dropped"), 1.0);
}

TEST(Stride, PositiveStrideWrappingTopIsDropped)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 1;
    cfg.distance = 4;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    const Addr top = ~Addr{0} - 255; // 256 bytes below 2^64
    pf.observe(1, top - 128, out);
    pf.observe(1, top - 64, out);
    pf.observe(1, top, out); // target top + 256 wraps past 2^64
    EXPECT_TRUE(out.empty());
    stats::Report report;
    pf.report(report);
    EXPECT_EQ(report.get("wrap_dropped"), 1.0);
}

TEST(Stride, StreamStartingAtZeroTrains)
{
    // Regression: lastAddr == 0 doubled as the "no history" sentinel,
    // so a stream whose first demand hit vaddr 0 trained one step late
    // (and a later touch OF address 0 reset the stream). History is
    // now tracked explicitly.
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    cfg.degree = 1;
    cfg.distance = 1;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0, out);
    EXPECT_TRUE(out.empty()); // first touch: history only
    pf.observe(1, 64, out);
    EXPECT_TRUE(out.empty()); // first stride observation
    pf.observe(1, 128, out);
    ASSERT_EQ(out.size(), 1u); // trained exactly like any other base
    EXPECT_EQ(out[0], 192u);
}

TEST(Stride, StreamsAreIndependent)
{
    StrideConfig cfg;
    cfg.confidenceThreshold = 1;
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    // Interleave two streams with different strides; both must train.
    for (int i = 1; i <= 4; ++i) {
        pf.observe(1, 0x1000 + i * 64ull, out);
        pf.observe(2, 0x900000 + i * 4096ull, out);
    }
    EXPECT_EQ(pf.confidentStreams(), 2u);
}

TEST(Stride, SystemRunWithStrideWorks)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("stride");
    TempoSystem system(cfg, makeWorkload("sgms", cfg.seed));
    const RunResult result = system.run(20000);
    // sgms has sequential sweeps: the stride prefetcher must fire.
    EXPECT_GT(result.core.strideIssued, 0u);
}

TEST(Stride, TempoStillWinsWithStride)
{
    SystemConfig base = SystemConfig::skylakeScaled();
    base.withPrefetchers("stride");
    SystemConfig tempo_cfg = base;
    tempo_cfg.withTempo(true);
    const RunResult off = runWorkload(base, "xsbench", 20000);
    const RunResult on = runWorkload(tempo_cfg, "xsbench", 20000);
    EXPECT_LE(on.runtime, off.runtime);
}

TEST(TlbPrefetch, ExtensionFiresOnSequentialWorkloads)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.tlbPrefetchNext = true;
    TempoSystem system(cfg, makeWorkload("sgms", cfg.seed));
    const RunResult result = system.run(20000);
    EXPECT_GT(result.core.tlbPrefetches, 0u);
}

TEST(TlbPrefetch, OffByDefault)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    const RunResult result = runWorkload(cfg, "sgms", 10000);
    EXPECT_EQ(result.core.tlbPrefetches, 0u);
}

} // namespace
} // namespace tempo
