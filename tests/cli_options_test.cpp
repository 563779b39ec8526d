#include <gtest/gtest.h>

#include <stdexcept>

#include "cli/options.hh"

namespace tempo::cli {
namespace {

TEST(CliOptions, Defaults)
{
    const Options options = parse({});
    EXPECT_EQ(options.workload, "xsbench");
    EXPECT_EQ(options.refs, 300000u);
    EXPECT_FALSE(options.tempo);
    EXPECT_FALSE(options.compare);
    EXPECT_FALSE(options.help);
}

TEST(CliOptions, ParsesEverything)
{
    const Options options = parse(
        {"--workload", "graph500", "--refs", "5000", "--tempo",
         "--imp", "--sched", "bliss", "--row-policy", "closed",
         "--page-policy", "hugetlbfs2m", "--frag", "0.25", "--subrow",
         "foa", "--subrow-dedicated", "2", "--seed", "99",
         "--full-report", "--csv", "out.csv"});
    EXPECT_EQ(options.workload, "graph500");
    EXPECT_EQ(options.refs, 5000u);
    EXPECT_TRUE(options.tempo);
    EXPECT_TRUE(options.imp);
    EXPECT_EQ(options.sched, "bliss");
    EXPECT_EQ(options.rowPolicy, "closed");
    EXPECT_EQ(options.pagePolicy, "hugetlbfs2m");
    EXPECT_DOUBLE_EQ(options.frag, 0.25);
    EXPECT_EQ(options.subrow, "foa");
    EXPECT_EQ(options.subrowDedicated, 2u);
    EXPECT_EQ(options.seed, 99u);
    EXPECT_TRUE(options.fullReport);
    EXPECT_EQ(options.csvPath, "out.csv");
}

TEST(CliOptions, HelpFlag)
{
    EXPECT_TRUE(parse({"--help"}).help);
    EXPECT_TRUE(parse({"-h"}).help);
    EXPECT_FALSE(usage().empty());
}

TEST(CliOptions, RejectsUnknownFlag)
{
    EXPECT_THROW((void)parse({"--bogus"}), std::invalid_argument);
}

// The code, never a flag, chooses the tag-array and translator
// implementations: tempo_sim reports these as unknown options (exit 2).
TEST(CliOptions, RejectsRemovedImplementationSwitches)
{
    EXPECT_THROW((void)parse({"--reference-cache"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--reference-translator"}),
                 std::invalid_argument);
}

TEST(CliOptions, RejectsMissingValue)
{
    EXPECT_THROW((void)parse({"--refs"}), std::invalid_argument);
}

TEST(CliOptions, RejectsBadNumbers)
{
    EXPECT_THROW((void)parse({"--refs", "abc"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--refs", "12x"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--refs", "0"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--frag", "1.5"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--frag", "-0.1"}),
                 std::invalid_argument);
}

TEST(CliOptions, RejectsNegativeIntegers)
{
    // std::stoull would wrap -1 to 2^64-1 and run with that seed.
    try {
        (void)parse({"--seed", "-1"});
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("--seed"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW((void)parse({"--refs", "+5"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--jobs", " 2"}), std::invalid_argument);
}

TEST(CliOptions, RejectsBadEnums)
{
    EXPECT_THROW((void)parse({"--sched", "magic"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--row-policy", "sideways"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--page-policy", "64k"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--subrow", "maybe"}),
                 std::invalid_argument);
}

TEST(CliOptions, PrefetcherFlagParsesAndValidates)
{
    EXPECT_EQ(parse({"--prefetcher", "stride,tskid"}).prefetcher,
              "stride,tskid");
    EXPECT_EQ(parse({"--prefetcher=misb"}).prefetcher, "misb");
    EXPECT_EQ(parse({"--prefetcher", "none"}).prefetcher, "none");
    // Bad lists fail at parse time, before a long run starts.
    EXPECT_THROW((void)parse({"--prefetcher", "warp-drive"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--prefetcher", "stride,stride"}),
                 std::invalid_argument);
    EXPECT_THROW((void)parse({"--prefetcher"}), std::invalid_argument);
    EXPECT_THROW((void)parse({"--prefetcher="}), std::invalid_argument);
}

TEST(CliOptions, PrefetcherFlagSelectsEngines)
{
    const SystemConfig cfg =
        toConfig(parse({"--prefetcher", "temporal,stride"}));
    EXPECT_EQ(cfg.prefetch.engines,
              (std::vector<std::string>{"temporal", "stride"}));
}

TEST(CliOptions, PrefetcherNoneOverridesImpFlag)
{
    const SystemConfig cfg =
        toConfig(parse({"--imp", "--prefetcher", "none"}));
    EXPECT_TRUE(cfg.prefetch.engines.empty());
    EXPECT_FALSE(cfg.imp.enabled);
    EXPECT_FALSE(cfg.stride.enabled);
}

TEST(CliOptions, LegacyFlagsUntouchedWithoutPrefetcherFlag)
{
    const SystemConfig cfg = toConfig(parse({"--imp"}));
    EXPECT_TRUE(cfg.prefetch.engines.empty());
    EXPECT_TRUE(cfg.imp.enabled);
}

TEST(CliOptions, TempoAndCompareConflict)
{
    EXPECT_THROW((void)parse({"--tempo", "--compare"}),
                 std::invalid_argument);
}

TEST(CliOptions, ToConfigMapsFields)
{
    Options options = parse(
        {"--tempo", "--sched", "bliss", "--row-policy", "open",
         "--page-policy", "4k", "--frag", "0.5", "--subrow", "poa",
         "--subrow-dedicated", "3", "--seed", "7", "--imp"});
    const SystemConfig cfg = toConfig(options);
    EXPECT_TRUE(cfg.mc.tempoEnabled);
    EXPECT_EQ(cfg.mc.sched, SchedKind::Bliss);
    EXPECT_EQ(cfg.dram.rowPolicy, RowPolicyKind::Open);
    EXPECT_EQ(cfg.vm.policy, PagePolicy::Base4K);
    EXPECT_DOUBLE_EQ(cfg.os.fragLevel, 0.5);
    EXPECT_EQ(cfg.dram.subRowAlloc, SubRowAlloc::POA);
    EXPECT_EQ(cfg.dram.subRowsForPrefetch, 3u);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_TRUE(cfg.imp.enabled);
}

TEST(CliOptions, ToConfigDefaultsMatchBaseline)
{
    const SystemConfig cfg = toConfig(parse({}));
    const SystemConfig baseline =
        SystemConfig::skylakeScaled().withSeed(42);
    EXPECT_EQ(cfg.mc.tempoEnabled, baseline.mc.tempoEnabled);
    EXPECT_EQ(cfg.dram.rowPolicy, baseline.dram.rowPolicy);
    EXPECT_EQ(cfg.vm.policy, baseline.vm.policy);
    EXPECT_EQ(cfg.dram.subRowAlloc, SubRowAlloc::None);
}

} // namespace
} // namespace tempo::cli
