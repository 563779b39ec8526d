#include "cli/run_options.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/parse.hh"
#include "common/thread_pool.hh"

namespace tempo::cli {
namespace {

using FabricRole = ExperimentOptions::FabricRole;

/** A field as RunOption::get renders it. */
template <typename T>
std::string
text(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return value;
    else if constexpr (std::is_enum_v<T>)
        return std::to_string(static_cast<int>(value));
    else if constexpr (std::is_arithmetic_v<T>)
        return std::to_string(value);
    else
        return std::to_string(value.size()); // the injected faults
}

std::string
path(const std::string &, const std::string &value)
{
    return value;
}

std::uint64_t
positive(const std::string &source, const std::string &value)
{
    if (const std::uint64_t parsed = parseU64(source, value))
        return parsed;
    throw std::invalid_argument(source + " must be positive");
}

std::uint32_t
categories(const std::string &, const std::string &value)
{
    return obs::parseCategories(value);
}

FabricRole
role(const std::string &source, const std::string &value)
{
    return value == "worker"    ? FabricRole::Worker
        : value == "coordinator" ? FabricRole::Coordinator
        : throw std::invalid_argument(
            source + ": expected worker or coordinator, got " + value);
}

/** "<index>:throw,<index>:hang". A test hook, so a malformed spec fails
 * rather than silently injecting nothing. */
std::vector<FaultInjection>
faults(const std::string &source, const std::string &spec)
{
    std::vector<FaultInjection> out;
    for (const std::string &token : splitCommas(spec)) {
        const std::size_t colon = token.find(':');
        const std::string kind =
            colon == std::string::npos ? "" : token.substr(colon + 1);
        if (kind != "throw" && kind != "hang")
            throw std::invalid_argument(source + ": bad token " + token);
        out.push_back({parseU64(source + " index", token.substr(0, colon)),
                       kind == "throw" ? FaultInjection::Kind::Throw
                                       : FaultInjection::Kind::Hang});
    }
    return out;
}

// The row that sets run.<member> to parse(source, value).
#define FIELD(var, flag, arg, help, part, tools, parse, member)             \
    {var, flag, arg, help, part, tools,                                  \
     [](const RunOptions &run) { return text(run.member); },             \
     [](RunOptions &run, const std::string &source,                      \
        const std::string &value) { run.member = parse(source, value); }}

constexpr RunOption kRows[] = {
    FIELD("TEMPO_RETRIES", "--retries", "N",
          "re-run a failed point up to N times, reseeded (default 0)",
          kEngine, kSim | kSweep, parseUnsigned, engine.retries),
    FIELD("TEMPO_POINT_TIMEOUT", "--point-timeout", "S",
          "a point running S seconds is timed_out (default 0: never)",
          kEngine, kSim | kSweep, parseSeconds, engine.pointTimeoutSec),
    FIELD("TEMPO_FAULT_INJECT", nullptr, nullptr,
          "test hook: \"<index>:throw,<index>:hang\" (default none)",
          kEngine, 0, faults, engine.inject),
    {"TEMPO_PROGRESS", "--progress", "[N]",
     "a stderr progress line every N finished points (default 0: none; "
     "the bare flag, or 0, means 10)",
     kEngine, kSweep,
     [](const RunOptions &run) { return text(run.engine.progressEvery); },
     [](RunOptions &run, const std::string &source,
        const std::string &value) {
         const unsigned every =
             value.empty() ? 0 : parseUnsigned(source, value);
         run.engine.progressEvery =
             every || source.starts_with("TEMPO_") ? every : 10;
     }},
    FIELD("TEMPO_FABRIC_DIR", nullptr, nullptr,
          "sweep-fabric directory its processes share (default none)",
          kEngine, 0, path, engine.fabricDir),
    FIELD("TEMPO_FABRIC_ROLE", nullptr, nullptr,
          "worker or coordinator (default worker)", kEngine, 0, role,
          engine.fabricRole),
    FIELD("TEMPO_FABRIC_WORKER", nullptr, nullptr,
          "fabric worker id (default w<pid>; checkpoint for --checkpoint)",
          kEngine, 0, path, engine.fabricWorkerId),
    FIELD("TEMPO_FABRIC_STALE_SEC", nullptr, nullptr,
          "reclaim claims of a worker silent for S seconds (default 30)",
          kEngine, 0, parseSeconds, engine.fabricStaleSec),
    FIELD("TEMPO_FABRIC_HEARTBEAT_SEC", nullptr, nullptr,
          "fabric heartbeat period in seconds (default 1)", kEngine, 0,
          parseSeconds, engine.fabricHeartbeatSec),
    {"TEMPO_TRACE_DIR", nullptr, nullptr,
     "write each point's trace to DIR/TRACE_<name>_<n>.json (default none)",
     kObs, 0, [](const RunOptions &run) { return run.obs.traceDir; },
     [](RunOptions &run, const std::string &, const std::string &value) {
         run.obs.trace = true;
         run.obs.traceDir = value;
     }},
    FIELD("TEMPO_TRACE_FILTER", "--trace-filter", "C",
          "trace categories walk,pt,txq,prefetch,replay,row,bliss,all "
          "(default all)",
          kObs, kSim | kEquals, categories, obs.categories),
    FIELD("TEMPO_TIMESERIES_WINDOW", "--timeseries-window", "N",
          "time-series sample window in cycles (default 0: off)", kObs,
          kSim | kEquals, parseU64, obs.timeseriesWindow),
    {"TEMPO_TRACE_CAPACITY", nullptr, nullptr,
     "trace ring size in events (default 2^20; 0 keeps it)", kObs, 0,
     [](const RunOptions &run) { return text(run.obs.traceCapacity); },
     [](RunOptions &run, const std::string &source,
        const std::string &value) {
         if (const std::uint64_t events = parseU64(source, value))
             run.obs.traceCapacity = static_cast<std::size_t>(events);
     }},
    FIELD("TEMPO_BENCH_REFS", nullptr, nullptr,
          "figure drivers: references per point (default 300000)", kBench,
          0, positive, benchRefs),
    FIELD("TEMPO_BENCH_REFS_MP", nullptr, nullptr,
          "figure drivers: references per app of a mix (default 60000)",
          kBench, 0, positive, benchRefsMp),
    FIELD("TEMPO_BENCH_JSON_DIR", nullptr, nullptr,
          "figure drivers: BENCH_<name>.json directory (default .)",
          kBench, 0, path, benchJsonDir),
    FIELD("TEMPO_BENCH_CHECKPOINT_DIR", nullptr, nullptr,
          "figure drivers: checkpoint into DIR/<name>, DIR existing, "
          "unless TEMPO_FABRIC_DIR is set (default none)",
          kBench, 0, path, benchCheckpointDir),
    FIELD(nullptr, "--jobs", "N",
          "worker threads (default 0: TEMPO_JOBS, else all cores)",
          kEngine, kSim | kSweep, parseUnsigned, engine.jobs),
    {nullptr, "--trace", "PATH",
     "write point i's pipeline trace (Chrome trace-event JSON, for "
     "Perfetto) to PATH, or PATH.i for i > 0",
     kObs, kSim | kEquals,
     [](const RunOptions &run) { return run.tracePath; },
     [](RunOptions &run, const std::string &, const std::string &value) {
         run.obs.trace = true;
         run.tracePath = value;
     }},
    {nullptr, "--checkpoint", "DIR",
     "record finished points in DIR and skip them when re-run after a "
     "crash (one sweep and one process per DIR)",
     kEngine, kSim | kSweep,
     [](const RunOptions &run) { return run.engine.fabricDir; },
     [](RunOptions &run, const std::string &, const std::string &value) {
         useCheckpointDir(run.engine, value);
     }},
};

#undef FIELD

/** row.set(), with @p source named in any error that does not name it
 * already. */
void
apply(const RunOption &row, RunOptions &run, const std::string &source,
      const std::string &value)
{
    try {
        row.set(run, source, value);
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        if (what.find(source) != std::string::npos)
            throw;
        throw std::invalid_argument(source + ": " + what);
    }
}

/** Print an infrastructure error of @p engine: @return false after
 * one. */
bool
guarded(auto engine)
{
    try {
        engine();
        return true;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return false;
    }
}

template <typename Result>
void
printFailures(const std::string &label, const std::vector<Result> &results)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStatus &status = results[i].status;
        if (!status.ok())
            std::fprintf(stderr,
                         "%s point %zu: %s after %u attempt(s): %s\n",
                         label.c_str(), i, status.codeName(),
                         status.attempts, status.error.c_str());
    }
}

/** Apply the set variables of the rows of @p parts to @p run. */
void
applyEnv(RunOptions &run, unsigned parts)
{
    for (const RunOption &row : kRows) {
        if (!row.var || !(row.part & parts))
            continue;
        if (const char *value = envValue(row.var))
            apply(row, run, row.var, value);
    }
}

} // namespace

RunOptions
RunOptions::fromEnv(unsigned parts)
{
    RunOptions run;
    applyEnv(run, parts);
    (void)ThreadPool::defaultThreads(); // checks TEMPO_JOBS up front
    return run;
}

std::span<const RunOption>
runOptionTable()
{
    return kRows;
}

bool
applyRunFlag(RunOptions &run, unsigned tool,
             const std::vector<std::string> &args, std::size_t &i)
{
    const std::string &arg = args[i];
    for (const RunOption &row : kRows) {
        if (!(row.tools & tool))
            continue;
        const std::string_view flag = row.flag;
        const bool optional = row.arg[0] == '[';
        std::string value;
        if ((row.tools & kEquals) && arg.size() > flag.size()
            && arg.starts_with(flag) && arg[flag.size()] == '=') {
            value = arg.substr(flag.size() + 1);
        } else if (arg != flag) {
            continue;
        } else if (i + 1 < args.size()
                   && (!optional
                       || std::isdigit(static_cast<unsigned char>(
                           args[i + 1][0])))) {
            value = args[++i];
        }
        if (value.empty() && (!optional || arg != flag))
            throw std::invalid_argument(std::string(flag) + " needs a value");
        apply(row, run, row.flag, value);
        return true;
    }
    return false;
}

std::string
runFlagUsage(unsigned tool)
{
    std::string out = "Run flags: each wins over the [TEMPO_*] variable it "
                      "mirrors.\n";
    for (const RunOption &row : kRows) {
        if (!(row.tools & tool))
            continue;
        std::string line = std::string("  ") + row.flag + " " + row.arg;
        line.resize(std::max<std::size_t>(line.size() + 1, 22), ' ');
        out += line + row.help
            + (row.var ? std::string(" [") + row.var + "]" : "") + "\n";
    }
    return out;
}

int
runBatch(const RunOptions &run, const std::string &label,
         const std::vector<ExperimentPoint> &points,
         std::vector<RunResult> &results)
{
    obs::configure(run.obs);
    if (!guarded([&] { results = runExperiments(points, run.engine); }))
        return 2;
    printFailures(label, results);

    // n counts across the batches of one label, so a process with
    // several batches never overwrites one of its own trace files, and
    // a label's names do not depend on the labels that ran before it.
    static std::map<std::string, std::size_t> next_n;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::size_t n = next_n[label]++;
        const auto &run_obs = results[i].obs;
        if (!run_obs || !run_obs->cfg.trace)
            continue; // obs off, or a point restored from a shard
        std::string file;
        if (!run.tracePath.empty())
            file = i ? run.tracePath + "." + std::to_string(i) : run.tracePath;
        else if (!run.obs.traceDir.empty())
            file = run.obs.traceDir + "/TRACE_" + label + "_"
                + std::to_string(n) + ".json";
        else
            continue;
        if (!guarded([&] { obs::writeChromeTrace(file, *run_obs); }))
            return 1;
        std::fprintf(stderr, "wrote %s (%zu events, %llu dropped)\n",
                     file.c_str(), run_obs->events.size(),
                     static_cast<unsigned long long>(
                         run_obs->droppedEvents));
    }
    return 0;
}

int
runBatch(const RunOptions &run, const std::string &label,
         const std::vector<MixPoint> &points,
         std::vector<MultiResult> &results)
{
    obs::configure(run.obs);
    if (!guarded([&] { results = runMixExperiments(points, run.engine); }))
        return 2;
    printFailures(label, results);
    return 0;
}

int
writeJson(std::FILE *log, const std::string &path, const std::string &bench,
          std::uint64_t refs, std::uint64_t seed,
          const std::vector<stats::BenchPoint> &points)
{
    if (!guarded([&] {
            stats::writeBenchJson(path, bench, refs, seed, points);
        }))
        return 1;
    std::fprintf(log, "wrote %s\n", path.c_str());
    return 0;
}

} // namespace tempo::cli

namespace tempo {

ExperimentOptions
ExperimentOptions::fromEnv()
{
    cli::RunOptions run;
    cli::applyEnv(run, cli::kEngine);
    return run.engine;
}

obs::Config
obs::configFromEnv()
{
    cli::RunOptions run;
    run.obs = obs::config();
    cli::applyEnv(run, cli::kObs);
    return run.obs;
}

} // namespace tempo
