/**
 * @file
 * Table-wide checks of the run-option table: every TEMPO_* variable and
 * every run flag rejects malformed values with an error that names it,
 * a flag always wins over the variable it mirrors, each tool takes only
 * its own flags and each reader only its own variables. runBatch()
 * writes each trace as its point finishes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/options.hh"
#include "cli/run_options.hh"
#include "core/experiment.hh"
#include "obs/obs.hh"

namespace tempo::cli {
namespace {

constexpr unsigned kAllParts =
    kEngine | kObs | kBench;

/** Sets @p var to @p value for its lifetime. */
struct ScopedVar {
    const char *var;
    ScopedVar(const char *name, const std::string &value) : var(name)
    {
        ::setenv(var, value.c_str(), 1);
    }
    ~ScopedVar() { ::unsetenv(var); }
};

/** RunOptions::fromEnv() of every part with @p var alone set to
 * @p value. */
RunOptions
withVar(const char *var, const std::string &value)
{
    const ScopedVar scoped(var, value);
    return RunOptions::fromEnv(kAllParts);
}

/** A tool that takes @p row's flag. */
unsigned
toolOf(const RunOption &row)
{
    return row.tools & kSim ? kSim
                                       : kSweep;
}

/** What a tool that takes @p row's flag does with @p args. */
bool
applyArgs(const RunOption &row, RunOptions &run,
          const std::vector<std::string> &args, std::size_t &i)
{
    return applyRunFlag(run, toolOf(row), args, i);
}

/** What a tool does with the arguments "FLAG VALUE" on top of @p run. */
RunOptions
withFlag(RunOptions run, const RunOption &row, const std::string &value)
{
    const std::vector<std::string> args = {row.flag, value};
    std::size_t i = 0;
    EXPECT_TRUE(applyArgs(row, run, args, i)) << row.flag;
    EXPECT_EQ(i, 1u) << row.flag;
    return run;
}

void
expectNamed(const std::string &source, auto apply)
{
    try {
        apply();
        ADD_FAILURE() << "accepted a malformed " << source;
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find(source), std::string::npos)
            << error.what();
    }
}

TEST(RunOptions, EveryRowRejectsMalformedValues)
{
    // A rejected value per variable and flag; rows that take any text
    // (a directory, a worker id, a trace path) have none.
    const std::map<std::string, std::string> malformed = {
        {"TEMPO_RETRIES", "-1"},
        {"--retries", "1x"},
        {"TEMPO_POINT_TIMEOUT", "5s"},
        {"--point-timeout", "-1"},
        {"TEMPO_FAULT_INJECT", "1:explode"},
        {"TEMPO_PROGRESS", "1x"},
        {"--progress", "9x"},
        {"TEMPO_FABRIC_ROLE", "boss"},
        {"TEMPO_FABRIC_STALE_SEC", "abc"},
        {"TEMPO_FABRIC_HEARTBEAT_SEC", "-0.5"},
        {"TEMPO_TRACE_FILTER", "walk,bogus"},
        {"--trace-filter", "bogus"},
        {"TEMPO_TIMESERIES_WINDOW", "-1"},
        {"--timeseries-window", "abc"},
        {"TEMPO_TRACE_CAPACITY", "+4"},
        {"TEMPO_BENCH_REFS", "0"},
        {"TEMPO_BENCH_REFS_MP", "12x"},
        {"--jobs", " 2"},
    };
    const RunOptions defaults;
    std::size_t checked = 0;
    for (const RunOption &row : runOptionTable()) {
        if (row.var) {
            // An empty variable means unset.
            EXPECT_EQ(row.get(withVar(row.var, "")), row.get(defaults))
                << row.var;
            if (malformed.contains(row.var)) {
                ++checked;
                expectNamed(row.var, [&] {
                    (void)withVar(row.var, malformed.at(row.var));
                });
            }
        }
        if (row.flag) {
            // A flag with no value, unless its value is optional.
            std::vector<std::vector<std::string>> empty;
            if (row.arg[0] != '[')
                empty.push_back({row.flag});
            if (row.tools & kEquals)
                empty.push_back({std::string(row.flag) + "="});
            for (const std::vector<std::string> &args : empty) {
                expectNamed(row.flag, [&] {
                    RunOptions run;
                    std::size_t i = 0;
                    (void)applyArgs(row, run, args, i);
                });
            }
            if (malformed.contains(row.flag)) {
                ++checked;
                expectNamed(row.flag, [&] {
                    (void)withFlag(defaults, row, malformed.at(row.flag));
                });
            }
        }
    }
    EXPECT_EQ(checked, malformed.size()) << "a value names no row";
}

TEST(RunOptions, FlagOverridesVariable)
{
    // A variable's value, and the flag's value on top of it.
    const std::map<std::string, std::pair<std::string, std::string>>
        values = {
            {"--retries", {"2", "0"}},
            {"--point-timeout", {"2.5", "0"}},
            {"--progress", {"3", "7"}},
            {"--trace-filter", {"walk", "all"}},
            {"--timeseries-window", {"2000", "0"}},
        };
    std::size_t pairs = 0;
    for (const RunOption &row : runOptionTable()) {
        if (!row.var || !row.flag)
            continue;
        ++pairs;
        ASSERT_TRUE(values.contains(row.flag)) << row.flag;
        const auto &[var_value, flag_value] = values.at(row.flag);
        const RunOptions from_var = withVar(row.var, var_value);
        const RunOptions flag_only = withFlag(RunOptions{}, row, flag_value);
        EXPECT_NE(row.get(from_var), row.get(flag_only)) << row.flag;
        EXPECT_EQ(row.get(withFlag(from_var, row, flag_value)),
                  row.get(flag_only))
            << row.flag;
    }
    EXPECT_EQ(pairs, values.size());

    // tempo_sim reads the variables first: TEMPO_RETRIES=2 with
    // --retries 0 makes one attempt.
    ::setenv("TEMPO_RETRIES", "2", 1);
    EXPECT_EQ(parse({}).run.engine.retries, 2u);
    EXPECT_EQ(parse({"--retries", "0"}).run.engine.retries, 0u);
    ::unsetenv("TEMPO_RETRIES");
}

TEST(RunOptions, EachToolTakesOnlyItsFlags)
{
    const auto takes = [](unsigned tool, std::vector<std::string> args) {
        RunOptions run;
        std::size_t i = 0;
        return applyRunFlag(run, tool, args, i);
    };
    constexpr unsigned sim = kSim;
    constexpr unsigned sweep = kSweep;
    for (const unsigned tool : {sim, sweep}) {
        EXPECT_TRUE(takes(tool, {"--jobs", "2"}));
        EXPECT_TRUE(takes(tool, {"--retries", "1"}));
        EXPECT_TRUE(takes(tool, {"--point-timeout", "5"}));
        EXPECT_TRUE(takes(tool, {"--checkpoint", "d"}));
        // "--flag=V" is tempo_sim's trace flags' form alone.
        EXPECT_FALSE(takes(tool, {"--jobs=2"}));
        EXPECT_FALSE(takes(tool, {"--retries=1"}));
        EXPECT_FALSE(takes(tool, {"--checkpoint=d"}));
    }
    EXPECT_TRUE(takes(sim, {"--trace", "t.json"}));
    EXPECT_TRUE(takes(sim, {"--trace=t.json"}));
    EXPECT_TRUE(takes(sim, {"--trace-filter=walk"}));
    EXPECT_TRUE(takes(sim, {"--timeseries-window=100"}));
    EXPECT_FALSE(takes(sim, {"--progress"}));
    EXPECT_TRUE(takes(sweep, {"--progress"}));
    EXPECT_FALSE(takes(sweep, {"--trace", "t.json"}));
    EXPECT_FALSE(takes(sweep, {"--trace-filter", "walk"}));
    EXPECT_FALSE(takes(sweep, {"--timeseries-window", "100"}));

    EXPECT_EQ(runFlagUsage(sim).find("--progress"), std::string::npos);
    EXPECT_EQ(runFlagUsage(sweep).find("--trace"), std::string::npos);
}

TEST(RunOptions, EachReaderReadsOnlyItsVariables)
{
    {
        // Variables the figure drivers alone read never stop a tool.
        const ScopedVar refs("TEMPO_BENCH_REFS", "abc");
        const ScopedVar dir("TEMPO_BENCH_CHECKPOINT_DIR", "/nonexistent");
        EXPECT_NO_THROW((void)RunOptions::fromEnv());
        EXPECT_THROW((void)RunOptions::fromEnv(kAllParts),
                     std::invalid_argument);
    }
    {
        // ExperimentOptions::fromEnv() reads the engine rows alone,
        // obs::configFromEnv() the obs rows alone.
        const ScopedVar filter("TEMPO_TRACE_FILTER", "bogus");
        EXPECT_NO_THROW((void)ExperimentOptions::fromEnv());
        EXPECT_THROW((void)obs::configFromEnv(), std::invalid_argument);
    }
    const ScopedVar retries("TEMPO_RETRIES", "x");
    EXPECT_NO_THROW((void)obs::configFromEnv());
    EXPECT_THROW((void)ExperimentOptions::fromEnv(), std::invalid_argument);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(RunOptions, BatchWritesEachTraceAsItsPointFinishes)
{
    namespace fs = std::filesystem;
    const std::string dir = "run_options_test_traces";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // The longest point first, so at two jobs the points finish out of
    // index order.
    std::vector<ExperimentPoint> points;
    for (const auto &[workload, refs] :
         std::vector<std::pair<const char *, std::uint64_t>>{
             {"xsbench", 6000}, {"mcf", 2000}, {"astar.small", 2000},
             {"gcc.small", 1000}}) {
        ExperimentPoint point;
        point.workload = workload;
        point.config = SystemConfig::skylakeScaled();
        point.config.withTempo(true);
        point.refs = refs;
        points.push_back(point);
    }

    RunOptions run;
    run.engine.jobs = 2;
    run.obs.trace = true;
    run.obs.traceCapacity = 1u << 14;
    run.obs.traceDir = dir;
    std::vector<std::size_t> hooked;
    run.engine.onPointDone = [&](std::size_t i, const RunResult &) {
        hooked.push_back(i);
    };

    std::vector<RunResult> results;
    ::testing::internal::CaptureStderr();
    const int rc = runBatch(run, "batch", points, results);
    const std::string lines = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(rc, 0) << lines;
    EXPECT_EQ(hooked.size(), points.size()); // the caller's hook chained

    // The reference: the same points, their traces written once the
    // whole batch has run.
    obs::configure(run.obs);
    ExperimentOptions serial;
    serial.jobs = 1;
    const std::vector<RunResult> reference = runExperiments(points, serial);
    obs::configure(obs::Config{});

    std::string want_lines;
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(results[i].obs && reference[i].obs) << i;
        EXPECT_EQ(results[i].obs->events.capacity(), 0u) << i;
        const obs::RunObs &want = *reference[i].obs;
        ASSERT_FALSE(want.events.empty()) << i;
        const std::string file =
            dir + "/TRACE_batch_" + std::to_string(i) + ".json";
        const std::string want_file = dir + "/want_" + std::to_string(i);
        obs::writeChromeTrace(want_file, want);
        EXPECT_EQ(slurp(file), slurp(want_file)) << file;
        want_lines += "wrote " + file + " ("
            + std::to_string(want.events.size()) + " events, "
            + std::to_string(want.droppedEvents) + " dropped)\n";
    }
    EXPECT_EQ(lines, want_lines);
    fs::remove_all(dir);
}

} // namespace
} // namespace tempo::cli
