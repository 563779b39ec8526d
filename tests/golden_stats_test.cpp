/**
 * @file
 * Golden-statistics regression tests: headline counters for fixed-seed
 * runs of the committed INI presets are pinned to exact values, so a
 * future PR cannot silently shift simulation results. The runs execute
 * on the parallel experiment engine — the same path the benches use —
 * so these goldens also pin the engine's determinism.
 *
 * When an INTENTIONAL model change lands, regenerate the table by
 * running the same points and pasting the new numbers (see
 * docs/MODEL.md "Golden statistics" for the procedure), and call the
 * shift out in the PR description.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/config_file.hh"
#include "core/experiment.hh"
#include "stats/json.hh"

#ifndef TEMPO_CONFIG_DIR
#error "TEMPO_CONFIG_DIR must point at the committed configs/"
#endif

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 20000;

struct GoldenRun {
    const char *config;   //!< INI file under configs/
    const char *workload; //!< fixed-seed workload (seed 42)
    // Headline counters (exact).
    std::uint64_t runtime;
    std::uint64_t walks;
    std::uint64_t ptDramAccesses;
    std::uint64_t leafPtDramAccesses;
    std::uint64_t replayAfterDramWalk;
    std::uint64_t replayLlcHits;
    std::uint64_t dramPtw;
    std::uint64_t dramReplay;
    std::uint64_t tempoPrefetchesIssued;
    // Headline rates (tight tolerance).
    double tlbMissRate;
    double energyTotal;
};

// Golden values for seed 42, 20000 refs, generated on the committed
// model. paper_baseline.ini is the no-TEMPO machine (prefetches must
// stay exactly zero); tempo_full.ini enables every TEMPO mechanism.
const GoldenRun kGolden[] = {
    {"paper_baseline.ini", "mcf",
     2461555ull, 4984ull, 4811ull, 3689ull, 3689ull, 0ull,
     4811ull, 4984ull, 0ull,
     0.2492, 747106.44999999995},
    {"paper_baseline.ini", "astar.small",
     1417976ull, 1739ull, 602ull, 591ull, 591ull, 0ull,
     602ull, 1739ull, 0ull,
     0.08695, 438392.91999999998},
    {"tempo_full.ini", "mcf",
     2231059ull, 5016ull, 4811ull, 3688ull, 3688ull, 3285ull,
     4811ull, 1328ull, 3688ull,
     0.25080000000000002, 682422.36975000007},
    {"tempo_full.ini", "astar.small",
     1386867ull, 1739ull, 602ull, 591ull, 591ull, 490ull,
     602ull, 1148ull, 591ull,
     0.08695, 431115.17675000004},
    // stride_tempo.ini selects the stride engine through the
    // prefetcher registry (explicit [prefetch] engines list), pinning
    // the registry dispatch path alongside the legacy-flag presets.
    {"stride_tempo.ini", "mcf",
     2473477ull, 5011ull, 4945ull, 3769ull, 3759ull, 3397ull,
     4945ull, 1252ull, 3759ull,
     0.12609964382268377, 757947.01324999996},
    {"stride_tempo.ini", "sgms",
     1895110ull, 9073ull, 5815ull, 5169ull, 5169ull, 4418ull,
     5815ull, 3903ull, 5169ull,
     0.31377092267256884, 616658.75249999994},
};

/** Exact per-engine taxonomy pins for the registry preset rows
 * (workload -> issued, useful, late, useless). */
struct GoldenTaxonomy {
    const char *workload;
    std::size_t row; //!< index into kGolden
    std::uint64_t issued, useful, late, useless;
};

const GoldenTaxonomy kGoldenTaxonomy[] = {
    {"mcf", 4, 26606ull, 6829ull, 545ull, 19232ull},
    {"sgms", 5, 8916ull, 554ull, 0ull, 8362ull},
};

SystemConfig
configFor(const GoldenRun &golden)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigFile(
        std::string(TEMPO_CONFIG_DIR) + "/" + golden.config, cfg);
    return cfg;
}

/** All golden points, run through the parallel engine at once. */
const std::vector<RunResult> &
goldenResults()
{
    static const std::vector<RunResult> results = [] {
        std::vector<ExperimentPoint> points;
        for (const GoldenRun &golden : kGolden) {
            ExperimentPoint p;
            p.workload = golden.workload;
            p.config = configFor(golden);
            p.refs = kRefs;
            points.push_back(std::move(p));
        }
        return runExperiments(points, 4);
    }();
    return results;
}

class GoldenStats : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenStats, HeadlineCountersMatch)
{
    const GoldenRun &golden = kGolden[GetParam()];
    const RunResult &r = goldenResults()[GetParam()];
    SCOPED_TRACE(std::string(golden.config) + " / " + golden.workload);

    EXPECT_EQ(r.runtime, golden.runtime);
    EXPECT_EQ(r.core().walks, golden.walks);
    EXPECT_EQ(r.core().ptDramAccesses, golden.ptDramAccesses);
    EXPECT_EQ(r.core().leafPtDramAccesses, golden.leafPtDramAccesses);
    EXPECT_EQ(r.core().replayAfterDramWalk, golden.replayAfterDramWalk);
    EXPECT_EQ(r.core().replayLlcHits, golden.replayLlcHits);
    EXPECT_EQ(r.dramPtw, golden.dramPtw);
    EXPECT_EQ(r.dramReplay, golden.dramReplay);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  r.report.get("mc.tempo.prefetches_issued")),
              golden.tempoPrefetchesIssued);
    EXPECT_NEAR(r.report.get("tlb.miss_rate"), golden.tlbMissRate,
                1e-12);
    EXPECT_NEAR(r.energy.total(), golden.energyTotal,
                golden.energyTotal * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenStats,
                         ::testing::Range<std::size_t>(
                             0, std::size(kGolden)));

// The registry preset also pins its per-engine prefetch taxonomy: the
// useful/late/useless split must stay exact AND sum to issued.
TEST(GoldenStatsTaxonomy, StrideTaxonomyMatches)
{
    for (const GoldenTaxonomy &golden : kGoldenTaxonomy) {
        const RunResult &r = goldenResults()[golden.row];
        SCOPED_TRACE(golden.workload);
        EXPECT_EQ(r.report.get("prefetch.stride.issued"),
                  static_cast<double>(golden.issued));
        EXPECT_EQ(r.report.get("prefetch.stride.useful"),
                  static_cast<double>(golden.useful));
        EXPECT_EQ(r.report.get("prefetch.stride.late"),
                  static_cast<double>(golden.late));
        EXPECT_EQ(r.report.get("prefetch.stride.useless"),
                  static_cast<double>(golden.useless));
        EXPECT_EQ(golden.useful + golden.late + golden.useless,
                  golden.issued);
    }
}

// The JSON documents the benches emit (BENCH_*.json) must carry the
// tempo-bench-1 schema with every required key, and emission must be
// deterministic: the golden runs above, flattened twice, produce the
// same bytes.
TEST(BenchJson, SchemaHasRequiredKeysAndIsDeterministic)
{
    std::vector<stats::BenchPoint> points;
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
        points.push_back(toBenchPoint(
            kGolden[i].workload,
            {{"config_file", kGolden[i].config}}, goldenResults()[i]));
    }
    const std::string dump =
        stats::benchJson("golden", kRefs, 42, points).dump();

    for (const char *key :
         {"\"schema\": \"tempo-bench-1\"", "\"bench\": \"golden\"",
          "\"refs\": 20000", "\"seed\": 42", "\"points\"",
          "\"workload\": \"mcf\"", "\"workload\": \"astar.small\"",
          "\"config_file\": \"paper_baseline.ini\"",
          "\"runtime_cycles\": 2231059", "\"energy\"", "\"total\"",
          "\"counters\"", "\"walks\": 5016",
          "\"report.mc.tempo.prefetches_issued\": 3688"}) {
        EXPECT_NE(dump.find(key), std::string::npos)
            << "missing from BENCH json: " << key;
    }

    const std::string again =
        stats::benchJson("golden", kRefs, 42, points).dump();
    EXPECT_EQ(dump, again);
}

// The golden table itself pins values; this pins the *config files*:
// renaming or breaking a committed preset must fail loudly here, not
// in a bench run.
TEST(BenchJson, CommittedPresetsLoad)
{
    for (const char *file : {"paper_baseline.ini", "tempo_full.ini",
                             "subrow_tempo.ini", "stride_tempo.ini"}) {
        SystemConfig cfg = SystemConfig::skylakeScaled();
        EXPECT_NO_THROW(cli::applyConfigFile(
            std::string(TEMPO_CONFIG_DIR) + "/" + file, cfg))
            << file;
    }
}

} // namespace
} // namespace tempo
