/**
 * @file
 * Observability subsystem tests (src/obs/): the disabled path changes
 * nothing, the Chrome trace round-trips and nests cleanly, the
 * lifecycle audit sums to the aggregate counters it claims to break
 * down, and time-series samples survive the checkpoint journal.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/config_file.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "obs/obs.hh"
#include "stats/json.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 20000;

SystemConfig
tempoCfg()
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    return cfg;
}

/** Run one point under @p obs_cfg and restore the disabled default, so
 * a failing test never leaks observability into its neighbours. */
RunResult
runWith(const obs::Config &obs_cfg, const SystemConfig &cfg,
        const std::string &workload, std::uint64_t warmup = 0)
{
    obs::configure(obs_cfg);
    System system(cfg, makeWorkload(workload, cfg.seed));
    RunResult result = system.run(kRefs, warmup);
    obs::configure(obs::Config{});
    return result;
}

std::string
reportText(const RunResult &result)
{
    std::ostringstream os;
    result.report.printText(os);
    return os.str();
}

std::string
benchDump(const RunResult &result)
{
    const std::vector<stats::BenchPoint> points{
        toBenchPoint("mcf", {}, result)};
    return stats::benchJson("obs", kRefs, 42, points).dump();
}

// With observability off, output is byte-identical to a run that never
// touched the subsystem — including after an instrumented run has
// configured and torn it down — and the instrumented run itself leaves
// the simulated machine (timing, counters) untouched.
TEST(ObsConfig, FromEnvValidatesNumbers)
{
    // Only configFromEnv() runs while a value is set: nothing is traced.
    ::setenv("TEMPO_TIMESERIES_WINDOW", "500", 1);
    EXPECT_EQ(obs::configFromEnv().timeseriesWindow, 500u);
    ::unsetenv("TEMPO_TIMESERIES_WINDOW");
    const std::pair<const char *, const char *> cases[] = {
        {"TEMPO_TIMESERIES_WINDOW", "-1"},
        {"TEMPO_TIMESERIES_WINDOW", "abc"},
        {"TEMPO_TRACE_CAPACITY", "1x"},
        {"TEMPO_TRACE_CAPACITY", "+4"},
    };
    for (const auto &[name, value] : cases) {
        ::setenv(name, value, 1);
        try {
            (void)obs::configFromEnv();
            ADD_FAILURE() << "accepted " << name << "=" << value;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find(name),
                      std::string::npos)
                << error.what();
        }
        ::unsetenv(name);
    }
}

TEST(ObsDisabled, OutputIsByteIdentical)
{
    const SystemConfig cfg = tempoCfg();
    const RunResult off = runWith(obs::Config{}, cfg, "mcf");

    obs::Config on_cfg;
    on_cfg.trace = true;
    on_cfg.timeseriesWindow = 5000;
    const RunResult on = runWith(on_cfg, cfg, "mcf");

    const RunResult off_again = runWith(obs::Config{}, cfg, "mcf");

    EXPECT_EQ(reportText(off), reportText(off_again));
    EXPECT_EQ(benchDump(off), benchDump(off_again));
    EXPECT_FALSE(off.report.has("obs.walks"));
    EXPECT_EQ(benchDump(off).find("\"timeseries\""), std::string::npos);
    EXPECT_EQ(off.obs, nullptr);

    // Observation does not perturb the simulation.
    EXPECT_EQ(off.runtime, on.runtime);
    EXPECT_EQ(off.core().walks, on.core().walks);
    EXPECT_EQ(off.dramPtw, on.dramPtw);
    EXPECT_DOUBLE_EQ(off.energy.total(), on.energy.total());
    EXPECT_TRUE(on.report.has("obs.walks"));
}

// The exported Chrome trace parses as JSON; per (pid, tid) track every
// "E" closes a matching "B" of the same name, timestamps are monotone
// in array order, and walk ids join the walker and prefetch processes.
TEST(ObsTrace, ChromeTraceRoundTrips)
{
    obs::Config obs_cfg;
    obs_cfg.trace = true;
    obs_cfg.timeseriesWindow = 20000;
    const RunResult result = runWith(obs_cfg, tempoCfg(), "mcf");
    ASSERT_NE(result.obs, nullptr);
    EXPECT_GT(result.obs->events.size(), 0u);
    EXPECT_EQ(result.obs->droppedEvents, 0u);

    std::ostringstream os;
    obs::writeChromeTrace(os, *result.obs);
    const stats::JsonValue doc = stats::parseJson(os.str());
    const stats::JsonValue &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, stats::JsonValue::Kind::Array);
    EXPECT_GT(events.elements.size(), 0u);

    struct Track {
        std::uint64_t lastTs = 0;
        std::vector<std::string> open;
    };
    std::map<std::pair<std::uint64_t, std::uint64_t>, Track> tracks;
    std::set<std::uint64_t> walk_tids;
    std::set<std::uint64_t> prefetch_tids;
    bool saw_counter = false;
    for (const stats::JsonValue &e : events.elements) {
        const std::string ph = e.at("ph").asString();
        if (ph == "M")
            continue;
        const std::uint64_t pid = e.at("pid").asUint64();
        const std::uint64_t tid = e.at("tid").asUint64();
        Track &track = tracks[{pid, tid}];
        const std::uint64_t ts = e.at("ts").asUint64();
        EXPECT_GE(ts, track.lastTs) << "pid " << pid << " tid " << tid;
        track.lastTs = ts;
        const std::string name = e.at("name").asString();
        if (ph == "B") {
            track.open.push_back(name);
            if (pid == 1 && name == "walk")
                walk_tids.insert(tid);
            if (pid == 3 && name == "tempo_prefetch")
                prefetch_tids.insert(tid);
        } else if (ph == "E") {
            ASSERT_FALSE(track.open.empty())
                << "unmatched E on pid " << pid << " tid " << tid;
            EXPECT_EQ(track.open.back(), name);
            track.open.pop_back();
        } else if (ph == "C") {
            saw_counter = true;
        }
    }
    for (const auto &[key, track] : tracks) {
        EXPECT_TRUE(track.open.empty())
            << "span left open on pid " << key.first << " tid "
            << key.second;
    }

    // TEMPO runs produce walk and prefetch spans that share walk-id
    // tids, so the two processes join in the viewer.
    EXPECT_FALSE(walk_tids.empty());
    EXPECT_FALSE(prefetch_tids.empty());
    bool joined = false;
    for (const std::uint64_t tid : prefetch_tids)
        joined = joined || walk_tids.count(tid) > 0;
    EXPECT_TRUE(joined);
    EXPECT_TRUE(saw_counter);
}

// The lifecycle audit counts exactly what the aggregate counters count:
// the replay-class breakdown sums to replay_after_dram_walk, and the
// prefetch taxonomy sums to the MC's issued/dropped totals.
TEST(ObsAudit, BreakdownsSumToAggregates)
{
    obs::Config obs_cfg;
    obs_cfg.timeseriesWindow = 10000; // audit on, tracing off
    for (const std::uint64_t warmup : {std::uint64_t(0),
                                       std::uint64_t(5000)}) {
        const RunResult r =
            runWith(obs_cfg, tempoCfg(), "mcf", warmup);
        SCOPED_TRACE("warmup " + std::to_string(warmup));

        const double replay_sum = r.report.get("obs.replay_private_hit")
            + r.report.get("obs.replay_llc_hit")
            + r.report.get("obs.replay_merged")
            + r.report.get("obs.replay_row_hit")
            + r.report.get("obs.replay_array");
        EXPECT_EQ(static_cast<std::uint64_t>(replay_sum),
                  r.core().replayAfterDramWalk);

        EXPECT_EQ(r.report.get("obs.walks"),
                  static_cast<double>(r.core().walks));
        EXPECT_EQ(r.report.get("obs.walks_leaf_dram"),
                  static_cast<double>(r.core().walksWithLeafDram));

        const double taxonomy = r.report.get("obs.prefetch_useful")
            + r.report.get("obs.prefetch_late")
            + r.report.get("obs.prefetch_useless");
        EXPECT_EQ(r.report.get("obs.prefetch_issued"),
                  r.report.get("mc.tempo.prefetches_issued"));
        EXPECT_EQ(taxonomy,
                  r.report.get("mc.tempo.prefetches_issued"));
        EXPECT_EQ(r.report.get("obs.prefetch_dropped"),
                  r.report.get("mc.tempo.prefetches_dropped"));
        EXPECT_GT(r.report.get("obs.prefetch_issued"), 0.0);
    }
}

// A mix shares one session and one walk-id space: the audit keeps its
// laws summed over the apps, and the sampler covers every core.
TEST(ObsAudit, MixKeepsTheLaws)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigFile(std::string(TEMPO_CONFIG_DIR) + "/tempo_full.ini",
                         cfg);
    obs::Config obs_cfg;
    obs_cfg.timeseriesWindow = 10000;
    obs::configure(obs_cfg);
    System system(cfg, makeMix({"xsbench", "astar.small"}, cfg.seed));
    const RunResult r = system.run(kRefs / 2);
    obs::configure(obs::Config{});

    double replays = 0, walks = 0, leaf_walks = 0;
    for (const char *app : {"app0.", "app1."}) {
        replays += r.report.get(std::string(app) + "replay_after_dram_walk");
        walks += r.report.get(std::string(app) + "walks");
        leaf_walks += r.report.get(std::string(app) + "walks_with_leaf_dram");
    }
    EXPECT_GT(replays, 0.0);
    EXPECT_EQ(r.report.get("obs.replay_private_hit")
                  + r.report.get("obs.replay_llc_hit")
                  + r.report.get("obs.replay_merged")
                  + r.report.get("obs.replay_row_hit")
                  + r.report.get("obs.replay_array"),
              replays);
    EXPECT_EQ(r.report.get("obs.walks"), walks);
    EXPECT_EQ(r.report.get("obs.walks_leaf_dram"), leaf_walks);

    const double issued = r.report.get("mc.tempo.prefetches_issued");
    EXPECT_GT(issued, 0.0);
    EXPECT_EQ(r.report.get("obs.prefetch_issued"), issued);
    EXPECT_EQ(r.report.get("obs.prefetch_useful")
                  + r.report.get("obs.prefetch_late")
                  + r.report.get("obs.prefetch_useless"),
              issued);
    EXPECT_EQ(r.report.get("obs.prefetch_dropped"),
              r.report.get("mc.tempo.prefetches_dropped"));

    ASSERT_NE(r.obs, nullptr);
    EXPECT_FALSE(r.obs->timeseries.empty());
}

// On a baseline (no-TEMPO) machine the taxonomy is exactly zero.
TEST(ObsAudit, BaselineIssuesNoPrefetches)
{
    obs::Config obs_cfg;
    obs_cfg.timeseriesWindow = 10000;
    const RunResult r = runWith(obs_cfg, SystemConfig::skylakeScaled(),
                                "mcf");
    EXPECT_EQ(r.report.get("obs.prefetch_issued"), 0.0);
    EXPECT_EQ(r.report.get("obs.prefetch_useful"), 0.0);
    EXPECT_EQ(r.report.get("obs.prefetch_late"), 0.0);
    EXPECT_EQ(r.report.get("obs.prefetch_useless"), 0.0);
    EXPECT_EQ(r.report.get("obs.prefetch_dropped"), 0.0);
}

// Time-series columns stay parallel, surface in the bench JSON, and
// survive the checkpoint journal byte-identically (with tracing left
// off on the restored side, so resume never rewrites trace files).
TEST(ObsTimeseries, ColumnsAndCheckpointRoundTrip)
{
    obs::Config obs_cfg;
    obs_cfg.timeseriesWindow = 2000;
    const RunResult r = runWith(obs_cfg, tempoCfg(), "mcf");
    ASSERT_NE(r.obs, nullptr);
    const obs::TimeSeries &ts = r.obs->timeseries;
    ASSERT_FALSE(ts.empty());
    EXPECT_EQ(ts.windowCycles, 2000u);
    ASSERT_EQ(ts.columns.size(), 6u);
    EXPECT_EQ(ts.columns[0].first, "cycle");
    const std::size_t samples = ts.columns[0].second.size();
    EXPECT_GT(samples, 1u);
    for (const auto &[name, values] : ts.columns)
        EXPECT_EQ(values.size(), samples) << name;

    const std::string dump = benchDump(r);
    EXPECT_NE(dump.find("\"timeseries\""), std::string::npos);
    EXPECT_NE(dump.find("\"window_cycles\": 2000"), std::string::npos);
    EXPECT_NE(dump.find("\"row_hit_rate\""), std::string::npos);

    const std::string encoded = encodeRunResult(r).dumpCompact();
    const RunResult decoded =
        decodeRunResult(stats::parseJson(encoded));
    ASSERT_NE(decoded.obs, nullptr);
    EXPECT_FALSE(decoded.obs->cfg.trace);
    EXPECT_EQ(encodeRunResult(decoded).dumpCompact(), encoded);
    EXPECT_EQ(benchDump(decoded), dump);
}

// Trace categories filter events but never the audit counters.
TEST(ObsTrace, FilterNarrowsEventsNotCounters)
{
    obs::Config obs_cfg;
    obs_cfg.trace = true;
    obs_cfg.categories = obs::parseCategories("walk,replay");
    const RunResult filtered = runWith(obs_cfg, tempoCfg(), "mcf");
    obs_cfg.categories = obs::kAllCategories;
    const RunResult full = runWith(obs_cfg, tempoCfg(), "mcf");
    ASSERT_NE(filtered.obs, nullptr);
    ASSERT_NE(full.obs, nullptr);
    EXPECT_LT(filtered.obs->events.size(), full.obs->events.size());
    EXPECT_GT(filtered.obs->events.size(), 0u);
    EXPECT_EQ(filtered.report.get("obs.prefetch_issued"),
              full.report.get("obs.prefetch_issued"));

    EXPECT_THROW(obs::parseCategories("walk,banana"),
                 std::invalid_argument);
    EXPECT_EQ(obs::parseCategories("all"), obs::kAllCategories);
}

// A tiny ring capacity drops (and counts) the oldest events instead of
// allocating, and the exporter still emits a cleanly-nesting document.
TEST(ObsTrace, RingOverflowDropsOldest)
{
    obs::Config obs_cfg;
    obs_cfg.trace = true;
    obs_cfg.traceCapacity = 256;
    const RunResult r = runWith(obs_cfg, tempoCfg(), "mcf");
    ASSERT_NE(r.obs, nullptr);
    EXPECT_EQ(r.obs->events.size(), 256u);
    EXPECT_GT(r.obs->droppedEvents, 0u);
    EXPECT_EQ(r.report.get("obs.trace_dropped"),
              static_cast<double>(r.obs->droppedEvents));

    std::ostringstream os;
    obs::writeChromeTrace(os, *r.obs);
    EXPECT_NO_THROW(stats::parseJson(os.str()));
}

} // namespace
} // namespace tempo
