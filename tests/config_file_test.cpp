#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cli/config_file.hh"

namespace tempo::cli {
namespace {

SystemConfig
apply(const std::string &text)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    applyConfigText(text, cfg);
    return cfg;
}

TEST(ConfigFile, EmptyTextIsNoop)
{
    const SystemConfig cfg = apply("");
    EXPECT_EQ(cfg.caches.llc.sizeBytes,
              SystemConfig::skylakeScaled().caches.llc.sizeBytes);
}

TEST(ConfigFile, CommentsAndBlanksIgnored)
{
    apply("# a comment\n\n; another\n[dram]\nchannels = 4 # inline\n");
}

TEST(ConfigFile, SetsCacheGeometry)
{
    const SystemConfig cfg = apply(
        "[caches]\nllc_bytes = 2097152\nllc_assoc = 8\nl1_latency = 5\n");
    EXPECT_EQ(cfg.caches.llc.sizeBytes, 2097152u);
    EXPECT_EQ(cfg.caches.llc.assoc, 8u);
    EXPECT_EQ(cfg.caches.l1.latency, 5u);
}

TEST(ConfigFile, SetsDramAndEnums)
{
    const SystemConfig cfg = apply(
        "[dram]\nchannels = 4\nrow_policy = closed\nrefresh = false\n"
        "subrow_alloc = foa\nsubrows_for_prefetch = 2\n");
    EXPECT_EQ(cfg.dram.channels, 4u);
    EXPECT_EQ(cfg.dram.rowPolicy, RowPolicyKind::Closed);
    EXPECT_FALSE(cfg.dram.refreshEnabled);
    EXPECT_EQ(cfg.dram.subRowAlloc, SubRowAlloc::FOA);
    EXPECT_EQ(cfg.dram.subRowsForPrefetch, 2u);
}

TEST(ConfigFile, SetsTempoKnobs)
{
    const SystemConfig cfg = apply(
        "[mc]\ntempo = true\npt_row_hold = 7\ngrace_period = 21\n"
        "llc_fill = false\nsched = bliss\n");
    EXPECT_TRUE(cfg.mc.tempoEnabled);
    EXPECT_EQ(cfg.mc.tempoPtRowHold, 7u);
    EXPECT_EQ(cfg.mc.tempoGracePeriod, 21u);
    EXPECT_FALSE(cfg.mc.tempoLlcFill);
    EXPECT_EQ(cfg.mc.sched, SchedKind::Bliss);
}

TEST(ConfigFile, SetsVmAndImpAndCore)
{
    const SystemConfig cfg = apply(
        "[vm]\npage_policy = hugetlbfs1g\nfrag = 0.25\n"
        "[imp]\nenabled = true\ncoverage = 0.5\n"
        "[core]\nmlp_window = 12\nissue_gap = 2\nseed = 777\n");
    EXPECT_EQ(cfg.vm.policy, PagePolicy::Hugetlbfs1G);
    EXPECT_DOUBLE_EQ(cfg.os.fragLevel, 0.25);
    EXPECT_EQ(cfg.prefetch.engines, std::vector<std::string>{"imp"});
    EXPECT_DOUBLE_EQ(cfg.imp.coverage, 0.5);
    EXPECT_EQ(cfg.mlpWindow, 12u);
    EXPECT_FALSE(cfg.useWorkloadMlpHint);
    EXPECT_EQ(cfg.issueGap, 2u);
    EXPECT_EQ(cfg.seed, 777u);
}

TEST(ConfigFile, SetsPrefetchSections)
{
    const SystemConfig cfg = apply(
        "[prefetch]\nengines = tskid,misb\n"
        "[stride]\nenabled = true\ntable_entries = 32\n"
        "confidence_threshold = 3\ndegree = 1\ndistance = 8\n"
        "[tskid]\ntable_entries = 16\nconfidence_threshold = 1\n"
        "degree = 4\ndistance = 2\nlead_cycles = 123\n"
        "max_pending = 7\n"
        "[misb]\npair_entries = 1024\nmetadata_cache_entries = 64\n"
        "degree = 3\ntrain_threshold = 5\nmax_metadata_inflight = 4\n"
        "[temporal]\ntable_entries = 2048\nconfidence_threshold = 2\n"
        "degree = 1\ntrain_threshold = 6\n");
    // [stride] enabled = true appends stride to the listed engines.
    EXPECT_EQ(cfg.prefetch.engines,
              (std::vector<std::string>{"tskid", "misb", "stride"}));
    EXPECT_EQ(cfg.stride.tableEntries, 32u);
    EXPECT_EQ(cfg.stride.confidenceThreshold, 3u);
    EXPECT_EQ(cfg.stride.degree, 1u);
    EXPECT_EQ(cfg.stride.distance, 8u);
    EXPECT_EQ(cfg.tskid.tableEntries, 16u);
    EXPECT_EQ(cfg.tskid.confidenceThreshold, 1u);
    EXPECT_EQ(cfg.tskid.degree, 4u);
    EXPECT_EQ(cfg.tskid.distance, 2u);
    EXPECT_EQ(cfg.tskid.leadCycles, 123u);
    EXPECT_EQ(cfg.tskid.maxPending, 7u);
    EXPECT_EQ(cfg.misb.pairEntries, 1024u);
    EXPECT_EQ(cfg.misb.metadataCacheEntries, 64u);
    EXPECT_EQ(cfg.misb.degree, 3u);
    EXPECT_EQ(cfg.misb.trainThreshold, 5u);
    EXPECT_EQ(cfg.misb.maxMetadataInflight, 4u);
    EXPECT_EQ(cfg.temporal.tableEntries, 2048u);
    EXPECT_EQ(cfg.temporal.confidenceThreshold, 2u);
    EXPECT_EQ(cfg.temporal.degree, 1u);
    EXPECT_EQ(cfg.temporal.trainThreshold, 6u);
}

TEST(ConfigFile, BadPrefetchEnginesNameTheLine)
{
    try {
        apply("[prefetch]\nengines = stride,warp\n");
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("warp"), std::string::npos) << what;
    }
}

TEST(ConfigFile, UnknownPrefetchKeysAreErrors)
{
    EXPECT_THROW(apply("[prefetch]\nengine = stride\n"),
                 std::invalid_argument);
    EXPECT_THROW(apply("[stride]\nstride = 64\n"),
                 std::invalid_argument);
    EXPECT_THROW(apply("[tskid]\nlead = 10\n"), std::invalid_argument);
    EXPECT_THROW(apply("[misb]\ndepth = 2\n"), std::invalid_argument);
    EXPECT_THROW(apply("[temporal]\nsize = 8\n"),
                 std::invalid_argument);
}

TEST(ConfigFile, UnknownKeyIsAnError)
{
    EXPECT_THROW(apply("[dram]\nchanels = 4\n"),
                 std::invalid_argument);
}

// The code, never an INI file, chooses the tag-array and translator
// implementations.
TEST(ConfigFile, ImplementationSwitchesAreUnknownKeys)
{
    EXPECT_THROW(apply("[caches]\nreference_cache = true\n"),
                 std::invalid_argument);
    EXPECT_THROW(apply("[vm]\nreference_translator = true\n"),
                 std::invalid_argument);
}

TEST(ConfigFile, UnknownSectionIsAnError)
{
    EXPECT_THROW(apply("[nonsense]\nx = 1\n"), std::invalid_argument);
}

TEST(ConfigFile, KeyBeforeSectionIsAnError)
{
    EXPECT_THROW(apply("channels = 4\n"), std::invalid_argument);
}

TEST(ConfigFile, MalformedLinesAreErrors)
{
    EXPECT_THROW(apply("[dram\n"), std::invalid_argument);
    EXPECT_THROW(apply("[dram]\nchannels\n"), std::invalid_argument);
    EXPECT_THROW(apply("[dram]\nchannels =\n"), std::invalid_argument);
    EXPECT_THROW(apply("[dram]\nchannels = four\n"),
                 std::invalid_argument);
    EXPECT_THROW(apply("[mc]\ntempo = maybe\n"),
                 std::invalid_argument);
}

TEST(ConfigFile, ErrorsNameTheLine)
{
    try {
        apply("[dram]\nchannels = 2\nbogus = 1\n");
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("line 3"),
                  std::string::npos);
    }
}

/** The error for @p text names @p needle (a key, typically). */
void
expectErrorNames(const std::string &text, const std::string &needle)
{
    try {
        apply(text);
        FAIL() << "expected an exception for: " << text;
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << error.what();
    }
}

TEST(ConfigFile, NegativeIntegersAreRejected)
{
    // std::stoull would wrap -1 to 2^64-1 (and abort in the cache).
    expectErrorNames("[caches]\nl1_assoc = -1\n", "l1_assoc");
    expectErrorNames("[core]\nseed = +7\n", "seed");
}

TEST(ConfigFile, DramGeometryMustBePowersOfTwo)
{
    expectErrorNames("[dram]\nchannels = 0\n", "channels");
    expectErrorNames("[dram]\nbanks = 6\n", "banks");
    expectErrorNames("[dram]\nranks = 3\n", "ranks");
    expectErrorNames("[dram]\nrow_bytes = 32\n", "row_bytes");
    const SystemConfig cfg = apply("[dram]\nchannels = 4\nbanks = 16\n");
    EXPECT_EQ(cfg.dram.channels, 4u);
    EXPECT_EQ(cfg.dram.banksPerRank, 16u);
}

TEST(ConfigFile, CacheGeometryIsCheckedAtLoad)
{
    // Each of these used to pass the parser and panic in a constructor.
    expectErrorNames("[caches]\nl1_assoc = 0\n", "l1_assoc");
    expectErrorNames("[caches]\nllc_assoc = 3\n", "llc_assoc");
    expectErrorNames("[caches]\nl2_bytes = 64\nl2_assoc = 4\n",
                     "l2_bytes");
}

TEST(ConfigFile, TlbGeometryIsCheckedAtLoad)
{
    expectErrorNames("[tlb]\nl2_assoc = 0\n", "l2_assoc");
    expectErrorNames("[tlb]\nl1_entries_4k = 0\n", "l1_entries_4k");
}

TEST(ConfigFile, MmuGeometryIsCheckedAtLoad)
{
    expectErrorNames("[mmu]\nassoc = 0\n", "assoc");
    expectErrorNames("[mmu]\nentries_per_level = 24\n",
                     "entries_per_level");
}

// Each of these used to pass the parser and end the run in a signal
// (an assertion, a division by zero or a null dereference).
TEST(ConfigFile, ConstructorRulesAreCheckedAtLoad)
{
    expectErrorNames("[vm]\nfrag = 1.5\n", "vm.frag");
    expectErrorNames("[vm]\nfrag = -3\n", "vm.frag");
    expectErrorNames("[vm]\nfrag = 1\n", "vm.frag");
    expectErrorNames("[dram]\nsubrow_alloc = foa\nsubrow_count = 0\n",
                     "subrow_count");
    expectErrorNames("[dram]\nsubrow_alloc = foa\nsubrow_count = 3\n",
                     "subrow_count");
    // 8 KB rows hold 128 lines: 256 sub-rows would be empty.
    expectErrorNames("[dram]\nsubrow_alloc = foa\nsubrow_count = 256\n",
                     "subrow_count");
    expectErrorNames("[dram]\nsubrow_alloc = poa\nsubrow_count = 4\n"
                     "subrows_for_prefetch = 9\n",
                     "subrows_for_prefetch");
    expectErrorNames("[prefetch]\nengines = stride\n"
                     "[stride]\ntable_entries = 0\n",
                     "stride.table_entries");
    expectErrorNames("[imp]\nenabled = true\ntable_entries = 0\n",
                     "imp.table_entries");
    expectErrorNames("[prefetch]\nengines = tskid\n"
                     "[tskid]\ntable_entries = 0\n",
                     "tskid.table_entries");
    expectErrorNames("[prefetch]\nengines = temporal\n"
                     "[temporal]\ntable_entries = 0\n",
                     "temporal.table_entries");
    expectErrorNames("[prefetch]\nengines = misb\n[misb]\npair_entries = 0\n",
                     "misb.pair_entries");
    expectErrorNames("[prefetch]\nengines = misb\n"
                     "[misb]\nmetadata_cache_entries = 0\n",
                     "misb.metadata_cache_entries");
    expectErrorNames("[vm]\ntranslator_slots = 3\n",
                     "vm.translator_slots");
    // A zero refresh interval used to hang the first DRAM access.
    expectErrorNames("[dram]\ntrefi = 0\n", "trefi");
    EXPECT_EQ(apply("[dram]\nrefresh = false\ntrefi = 0\n").dram.tREFI, 0u);
    // Sub-rows off: the sub-row keys build nothing, so nothing fails.
    const SystemConfig cfg =
        apply("[dram]\nsubrow_count = 3\nsubrows_for_prefetch = 9\n");
    EXPECT_EQ(cfg.dram.subRowCount, 3u);
    // An engine left out of the list builds no table, so nothing fails;
    // selecting it later in the text does.
    const SystemConfig off = apply("[imp]\ntable_entries = 0\n"
                                   "[stride]\ntable_entries = 0\n"
                                   "[tskid]\ntable_entries = 0\n"
                                   "[temporal]\ntable_entries = 0\n"
                                   "[prefetch]\nengines = misb\n");
    EXPECT_EQ(off.imp.prefetchTableEntries, 0u);
    EXPECT_EQ(off.stride.tableEntries, 0u);
    EXPECT_EQ(off.tskid.tableEntries, 0u);
    EXPECT_EQ(off.temporal.tableEntries, 0u);
    expectErrorNames("[imp]\ntable_entries = 0\nenabled = false\n"
                     "[prefetch]\nengines = misb,imp\n",
                     "imp.table_entries");
}

TEST(ConfigFile, FractionsMustBeInZeroOne)
{
    expectErrorNames("[vm]\nthp_eligible = 7\n", "vm.thp_eligible");
    expectErrorNames("[imp]\ncoverage = -0.1\n", "imp.coverage");
    expectErrorNames("[imp]\naccuracy = 1.01\n", "imp.accuracy");
    const SystemConfig cfg = apply("[imp]\ncoverage = 1\naccuracy = 0\n");
    EXPECT_DOUBLE_EQ(cfg.imp.coverage, 1.0);
    EXPECT_DOUBLE_EQ(cfg.imp.accuracy, 0.0);
}

TEST(ConfigFile, GeometryIsCheckedAfterTheWholeText)
{
    // A later line may repair what an earlier one set.
    const SystemConfig cfg =
        apply("[caches]\nl1_assoc = 0\nl1_assoc = 4\n");
    EXPECT_EQ(cfg.caches.l1.assoc, 4u);
}

TEST(ConfigFile, IntegersMustFitTheirField)
{
    // 2^32 + 4 used to truncate silently into a 4-way cache.
    expectErrorNames("[caches]\nl1_assoc = 4294967300\n", "l1_assoc");
    expectErrorNames("[tlb]\nl2_entries = 4294967296\n", "l2_entries");
    const SystemConfig cfg = apply("[core]\nseed = 18446744073709551615\n");
    EXPECT_EQ(cfg.seed, 18446744073709551615ull);
}

TEST(ConfigFile, MissingFileThrows)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    EXPECT_THROW(applyConfigFile("/no/such/file.ini", cfg),
                 std::invalid_argument);
}

} // namespace
} // namespace tempo::cli
