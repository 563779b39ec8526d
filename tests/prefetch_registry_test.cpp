/**
 * @file
 * Registry conformance suite: every engine behind the Prefetcher
 * interface must parse, build, report a self-consistent taxonomy, and
 * stay deterministic across repeated runs.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "cli/config_file.hh"
#include "core/system.hh"
#include "prefetch/registry.hh"

namespace tempo {
namespace {

TEST(PrefetcherRegistry, NamesAreRegistered)
{
    const std::vector<std::string> &names = registeredPrefetcherNames();
    ASSERT_EQ(names.size(), 5u);
    for (const char *name :
         {"stride", "imp", "tskid", "misb", "temporal"}) {
        EXPECT_TRUE(isRegisteredPrefetcher(name)) << name;
    }
    EXPECT_FALSE(isRegisteredPrefetcher("nextline"));
    EXPECT_FALSE(isRegisteredPrefetcher(""));
}

TEST(PrefetcherRegistry, ParseListVariants)
{
    EXPECT_TRUE(parsePrefetcherList("").empty());
    EXPECT_TRUE(parsePrefetcherList("none").empty());
    EXPECT_EQ(parsePrefetcherList("stride"),
              (std::vector<std::string>{"stride"}));
    // Order is dispatch order and must be preserved.
    EXPECT_EQ(parsePrefetcherList("temporal,stride,misb"),
              (std::vector<std::string>{"temporal", "stride", "misb"}));
}

TEST(PrefetcherRegistry, ParseRejectsBadLists)
{
    EXPECT_THROW((void)parsePrefetcherList("bogus"),
                 std::invalid_argument);
    EXPECT_THROW((void)parsePrefetcherList("stride,stride"),
                 std::invalid_argument);
    EXPECT_THROW((void)parsePrefetcherList("stride,,imp"),
                 std::invalid_argument);
    EXPECT_THROW((void)parsePrefetcherList("stride,none"),
                 std::invalid_argument);
}

// "[imp] enabled" and "[stride] enabled" are sugar for the engine
// list: true appends the engine, so the text's order is the dispatch
// order; false removes it.
TEST(PrefetcherRegistry, LegacyFlagsSelectEngines)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    EXPECT_TRUE(buildPrefetchers(cfg).empty());

    cli::applyConfigText("[imp]\nenabled = true\n"
                         "[stride]\nenabled = true\n",
                         cfg);
    auto engines = buildPrefetchers(cfg);
    ASSERT_EQ(engines.size(), 2u);
    EXPECT_EQ(engines[0]->name(), "imp");
    EXPECT_EQ(engines[1]->name(), "stride");

    cli::applyConfigText("[imp]\nenabled = false\n"
                         "[imp]\nenabled = true\n"
                         "[stride]\nenabled = true\n",
                         cfg);
    engines = buildPrefetchers(cfg);
    ASSERT_EQ(engines.size(), 2u);
    EXPECT_EQ(engines[0]->name(), "stride");
    EXPECT_EQ(engines[1]->name(), "imp");
}

TEST(PrefetcherRegistry, ExplicitListBuildsInOrderAndForcesEnabled)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("temporal,stride,tskid,misb,imp");
    const auto engines = buildPrefetchers(cfg);
    ASSERT_EQ(engines.size(), 5u);
    EXPECT_EQ(engines[0]->name(), "temporal");
    EXPECT_EQ(engines[1]->name(), "stride");
    EXPECT_EQ(engines[2]->name(), "tskid");
    EXPECT_EQ(engines[3]->name(), "misb");
    EXPECT_EQ(engines[4]->name(), "imp");
}

TEST(PrefetcherRegistry, WithPrefetchersRoundTrip)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("tskid,temporal");
    EXPECT_EQ(cfg.prefetch.engines,
              (std::vector<std::string>{"tskid", "temporal"}));
    cfg.withPrefetchers("none");
    EXPECT_TRUE(cfg.prefetch.engines.empty());
    EXPECT_THROW((void)cfg.withPrefetchers("bogus"),
                 std::invalid_argument);
}

TEST(PrefetcherRegistry, ConfigFileRoundTrip)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigText("[prefetch]\n"
                         "engines = stride,misb\n"
                         "[stride]\n"
                         "degree = 3\n"
                         "[tskid]\n"
                         "lead_cycles = 250\n"
                         "[misb]\n"
                         "max_metadata_inflight = 2\n"
                         "[temporal]\n"
                         "train_threshold = 9\n",
                         cfg);
    EXPECT_EQ(cfg.prefetch.engines,
              (std::vector<std::string>{"stride", "misb"}));
    EXPECT_EQ(cfg.stride.degree, 3u);
    EXPECT_EQ(cfg.tskid.leadCycles, 250u);
    EXPECT_EQ(cfg.misb.maxMetadataInflight, 2u);
    EXPECT_EQ(cfg.temporal.trainThreshold, 9u);

    // The engine selection survives a digest round trip: two configs
    // differing only in engines must hash differently.
    SystemConfig other = SystemConfig::skylakeScaled();
    other.withPrefetchers("stride,misb");
    EXPECT_NE(SystemConfig::skylakeScaled().digest(), other.digest());
}

TEST(PrefetcherRegistry, ConfigFileNoneDisablesLegacyFlags)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigText("[imp]\nenabled = true\n"
                         "[stride]\nenabled = true\n"
                         "[prefetch]\nengines = none\n",
                         cfg);
    EXPECT_TRUE(cfg.prefetch.engines.empty());
    EXPECT_TRUE(buildPrefetchers(cfg).empty());
    // Disabling an engine that is not listed leaves the list alone.
    cli::applyConfigText("[prefetch]\nengines = misb\n"
                         "[stride]\nenabled = false\n",
                         cfg);
    EXPECT_EQ(cfg.prefetch.engines, std::vector<std::string>{"misb"});
}

/** All-engines config used by the system-level conformance tests. */
SystemConfig
allEnginesConfig()
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("stride,imp,tskid,misb,temporal");
    return cfg;
}

TEST(PrefetcherRegistry, TaxonomySumsToIssued)
{
    const RunResult result =
        runWorkload(allEnginesConfig(), "xsbench", 20000);
    ASSERT_EQ(result.core().prefetchEngines.size(), 5u);
    std::uint64_t total_issued = 0;
    for (const PrefetchEngineStats &es : result.core().prefetchEngines) {
        // useful/late classify completed prefetches; whatever remains
        // is useless. The partition must be exact, engine by engine.
        EXPECT_LE(es.useful + es.late, es.issued) << es.name;
        EXPECT_EQ(es.useful + es.late + es.useless(), es.issued)
            << es.name;
        const std::string prefix = "prefetch." + es.name + ".";
        EXPECT_EQ(result.report.get(prefix + "issued"),
                  static_cast<double>(es.issued));
        EXPECT_EQ(result.report.get(prefix + "useful")
                      + result.report.get(prefix + "late")
                      + result.report.get(prefix + "useless"),
                  result.report.get(prefix + "issued"))
            << es.name;
        total_issued += es.issued;
    }
    // The workload has stride and indirect phases: the suite only
    // means something if the engines actually fire.
    EXPECT_GT(total_issued, 0u);
}

TEST(PrefetcherRegistry, DeterministicAcrossRepeats)
{
    const SystemConfig cfg = allEnginesConfig();
    const RunResult a = runWorkload(cfg, "xsbench", 15000);
    const RunResult b = runWorkload(cfg, "xsbench", 15000);
    EXPECT_EQ(a.runtime, b.runtime);
    ASSERT_EQ(a.core().prefetchEngines.size(),
              b.core().prefetchEngines.size());
    for (std::size_t i = 0; i < a.core().prefetchEngines.size(); ++i) {
        const PrefetchEngineStats &ea = a.core().prefetchEngines[i];
        const PrefetchEngineStats &eb = b.core().prefetchEngines[i];
        EXPECT_EQ(ea.issued, eb.issued) << ea.name;
        EXPECT_EQ(ea.useful, eb.useful) << ea.name;
        EXPECT_EQ(ea.late, eb.late) << ea.name;
        EXPECT_EQ(ea.dropped, eb.dropped) << ea.name;
        EXPECT_EQ(ea.metadataFetches, eb.metadataFetches) << ea.name;
    }
}

// "[imp] enabled = true" (and --imp) selects exactly the config the
// engine list does. The pins are the runs of the flag-selected engine
// before the engine list became the only selector: the one re-pin
// added the prefetch.imp.* keys and moved nothing else.
TEST(PrefetcherRegistry, ExplicitImpMatchesLegacyFlag)
{
    SystemConfig flag = SystemConfig::skylakeScaled();
    cli::setConfigKey(flag, "imp.enabled", "true");
    SystemConfig registry = SystemConfig::skylakeScaled();
    registry.withPrefetchers("imp");
    EXPECT_EQ(flag.digest(), registry.digest());
    const RunResult run = runWorkload(flag, "xsbench", 15000);
    EXPECT_EQ(run.runtime, 1520774u);
    EXPECT_EQ(run.core().impIssued, 7541u);
    EXPECT_EQ(run.core().impFaults, 6656u);
    EXPECT_EQ(run.report.get("prefetch.imp.issued"), 7541.0);
}

TEST(PrefetcherRegistry, ExplicitStrideMatchesLegacyFlag)
{
    SystemConfig flag = SystemConfig::skylakeScaled();
    cli::setConfigKey(flag, "stride.enabled", "true");
    SystemConfig registry = SystemConfig::skylakeScaled();
    registry.withPrefetchers("stride");
    EXPECT_EQ(flag.digest(), registry.digest());
    const RunResult run = runWorkload(flag, "sgms", 15000);
    EXPECT_EQ(run.runtime, 1542913u);
    EXPECT_EQ(run.core().strideIssued, 6706u);
    EXPECT_EQ(run.report.get("prefetch.stride.issued"), 6706.0);
}

TEST(PrefetcherRegistry, WarmupResetKeepsTaxonomyConsistent)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withPrefetchers("stride");
    System system(cfg, makeWorkload("sgms", cfg.seed));
    // The warmup reset must leave the taxonomy covering only the
    // measured window: no stale pre-warmup prefetch may classify as a
    // measured useful/late, which would break the partition.
    const RunResult measured = system.run(5000, 5000);
    ASSERT_EQ(measured.core().prefetchEngines.size(), 1u);
    const PrefetchEngineStats &es = measured.core().prefetchEngines[0];
    EXPECT_EQ(es.useful + es.late + es.useless(), es.issued);
    EXPECT_EQ(es.issued, measured.core().strideIssued);
}

} // namespace
} // namespace tempo
