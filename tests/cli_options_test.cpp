#include <gtest/gtest.h>

#include <stdexcept>

#include "cli/options.hh"

#include <string>
#include <vector>

namespace tempo::cli {
namespace {

TEST(CliOptions, Defaults)
{
    const Options options = parse({});
    EXPECT_EQ(options.workload, "xsbench");
    EXPECT_EQ(options.refs, 300000u);
    EXPECT_FALSE(options.config.mc.tempoEnabled);
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
    const SystemConfig &cfg = options.config;
    EXPECT_TRUE(cfg.mc.tempoEnabled);
    EXPECT_EQ(cfg.prefetch.engines, std::vector<std::string>{"imp"});
    EXPECT_EQ(cfg.mc.sched, SchedKind::Bliss);
    EXPECT_EQ(cfg.dram.rowPolicy, RowPolicyKind::Closed);
    EXPECT_EQ(cfg.vm.policy, PagePolicy::Hugetlbfs2M);
    EXPECT_DOUBLE_EQ(cfg.os.fragLevel, 0.25);
    EXPECT_EQ(cfg.dram.subRowAlloc, SubRowAlloc::FOA);
    EXPECT_EQ(cfg.dram.subRowsForPrefetch, 2u);
    EXPECT_EQ(cfg.seed, 99u);
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
    EXPECT_EQ(parse({"--prefetcher", "stride,tskid"})
                  .config.prefetch.engines,
              (std::vector<std::string>{"stride", "tskid"}));
    EXPECT_EQ(parse({"--prefetcher=misb"}).config.prefetch.engines,
              std::vector<std::string>{"misb"});
    EXPECT_TRUE(
        parse({"--prefetcher", "none"}).config.prefetch.engines.empty());
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

// Config flags apply in command-line order: a later list replaces the
// engines an earlier --imp added.
TEST(CliOptions, PrefetcherNoneOverridesImpFlag)
{
    const SystemConfig cfg =
        toConfig(parse({"--imp", "--prefetcher", "none"}));
    EXPECT_TRUE(cfg.prefetch.engines.empty());
    EXPECT_EQ(toConfig(parse({"--prefetcher", "none", "--imp"}))
                  .prefetch.engines,
              std::vector<std::string>{"imp"});
}

// --imp is sugar for the engine list: it appends imp once, after the
// engines already listed.
TEST(CliOptions, LegacyFlagsUntouchedWithoutPrefetcherFlag)
{
    EXPECT_EQ(toConfig(parse({"--imp"})).prefetch.engines,
              std::vector<std::string>{"imp"});
    EXPECT_EQ(toConfig(parse({"--prefetcher", "stride", "--imp"}))
                  .prefetch.engines,
              (std::vector<std::string>{"stride", "imp"}));
    EXPECT_EQ(toConfig(parse({"--prefetcher", "imp,misb", "--imp"}))
                  .prefetch.engines,
              (std::vector<std::string>{"imp", "misb"}));
}

TEST(CliOptions, CompareFlag)
{
    const Options options = parse({"--compare"});
    EXPECT_TRUE(options.compare);
    EXPECT_FALSE(options.config.mc.tempoEnabled);
}

TEST(CliOptions, TempoAndCompareConflict)
{
    const std::vector<std::vector<std::string>> orders = {
        {"--tempo", "--compare"}, {"--compare", "--tempo"}};
    for (const auto &args : orders) {
        try {
            (void)parse(args);
            ADD_FAILURE() << "expected an exception";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("mutually exclusive"),
                      std::string::npos)
                << error.what();
        }
    }
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
    EXPECT_EQ(cfg.prefetch.engines, std::vector<std::string>{"imp"});
}

// A malformed flag value names the flag and the key it sets; a value
// out of a constructor's range is refused by toConfig(), naming the key.
TEST(CliOptions, FlagErrorsNameTheKey)
{
    try {
        (void)parse({"--frag", "abc"});
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("--frag"), std::string::npos) << what;
        EXPECT_NE(what.find("vm.frag"), std::string::npos) << what;
    }
    for (const char *frag : {"1.5", "1", "-3"}) {
        try {
            (void)toConfig(parse({"--frag", frag}));
            ADD_FAILURE() << "accepted --frag " << frag;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("vm.frag"),
                      std::string::npos)
                << error.what();
        }
    }
}

// --subrow-dedicated sets its key like the INI does, also without
// --subrow; the sub-row rules are checked once the flags are applied.
TEST(CliOptions, SubrowDedicatedIsCheckedAfterTheFlags)
{
    EXPECT_EQ(toConfig(parse({"--subrow-dedicated", "3"}))
                  .dram.subRowsForPrefetch,
              3u);
    EXPECT_NO_THROW(
        (void)toConfig(parse({"--subrow-dedicated", "9", "--subrow",
                              "poa", "--subrow-dedicated", "2"})));
    try {
        (void)toConfig(parse({"--subrow", "foa", "--subrow-dedicated",
                              "9"}));
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("subrows_for_prefetch"),
                  std::string::npos)
            << error.what();
    }
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
