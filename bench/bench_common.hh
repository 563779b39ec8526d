/**
 * @file
 * Shared helpers for the figure-reproduction benches. Each bench binary
 * regenerates one table/figure of the paper: same x-axis, same metric,
 * printed as an aligned text table with the paper's expected band noted.
 *
 * Trace length is controlled by TEMPO_BENCH_REFS (default 300000) and
 * TEMPO_BENCH_REFS_MP (per-app references in multiprogrammed runs,
 * default 60000) so CI can run quick passes and full runs stay cheap.
 *
 * Simulation points run concurrently on the experiment engine
 * (TEMPO_JOBS env var caps the worker threads; default all cores) and
 * every bench records its points into a machine-readable
 * BENCH_<name>.json file (tempo-bench-1 schema, see src/stats/json.hh)
 * in the working directory — or $TEMPO_BENCH_JSON_DIR when set.
 *
 * Observability (src/obs/) is environment-driven: TEMPO_TRACE_DIR
 * writes a TRACE_<bench>_<point>.json pipeline trace per single-app
 * point, TEMPO_TRACE_FILTER narrows the categories, and
 * TEMPO_TIMESERIES_WINDOW adds windowed time series to the bench JSON.
 *
 * Fault isolation: a point that throws or exceeds TEMPO_POINT_TIMEOUT
 * seconds is reported on stderr and in the JSON failures array while
 * every other point completes (TEMPO_RETRIES re-runs failures with a
 * reseeded workload). With TEMPO_BENCH_CHECKPOINT_DIR=DIR set (an
 * existing directory), single-app batches checkpoint into DIR/<name>, a
 * one-worker fabric directory (as `--checkpoint` in the tools), and a
 * re-run resumes, skipping what already finished; the resumed output
 * is byte-identical to an uninterrupted run. An unusable directory, or
 * a changed sweep against an existing one, exits 2.
 *
 * Scale-out (src/fabric/): TEMPO_FABRIC_DIR plus TEMPO_FABRIC_ROLE
 * ("worker" | "coordinator") run a bench's single-app batches as one
 * multi-process sweep — workers claim points in the shared directory
 * and every participant emits the same bytes a single-process run
 * would. TEMPO_FABRIC_WORKER names a worker (default w<pid>);
 * TEMPO_FABRIC_STALE_SEC / TEMPO_FABRIC_HEARTBEAT_SEC tune crash
 * detection; TEMPO_PROGRESS prints a progress line every N points.
 * Multiprogrammed batches (runAllMix) do not fabric-distribute.
 */

#ifndef TEMPO_BENCH_BENCH_COMMON_HH
#define TEMPO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/multi_system.hh"
#include "core/tempo_system.hh"
#include "obs/obs.hh"
#include "workloads/workload.hh"

namespace tempo::bench {

inline std::uint64_t
envRefs(const char *name, std::uint64_t fallback)
{
    if (const char *value = std::getenv(name)) {
        const std::uint64_t parsed = std::strtoull(value, nullptr, 10);
        if (parsed > 0)
            return parsed;
    }
    return fallback;
}

/** Single-app trace length. */
inline std::uint64_t
refs()
{
    return envRefs("TEMPO_BENCH_REFS", 300000);
}

/** Per-app trace length for multiprogrammed mixes. */
inline std::uint64_t
refsMultiprogrammed()
{
    return envRefs("TEMPO_BENCH_REFS_MP", 60000);
}

inline void
header(const char *figure, const char *description, const char *expected)
{
    std::printf("==============================================================================\n");
    std::printf("%s — %s\n", figure, description);
    std::printf("paper expectation: %s\n", expected);
    std::printf("==============================================================================\n");
}

inline void
footer()
{
    std::printf("\n");
}

inline double
pct(double fraction)
{
    return 100.0 * fraction;
}

/** Run (baseline, TEMPO) for one workload under a base config. */
struct Pair {
    RunResult base;
    RunResult tempo;
};

inline Pair
runPair(const SystemConfig &base_cfg, const std::string &workload,
        std::uint64_t num_refs)
{
    SystemConfig tempo_cfg = base_cfg;
    tempo_cfg.withTempo(true);
    return Pair{runWorkload(base_cfg, workload, num_refs),
                runWorkload(tempo_cfg, workload, num_refs)};
}

/** One single-app point for the parallel batch helpers below. */
inline ExperimentPoint
point(const SystemConfig &cfg, const std::string &workload,
      std::uint64_t num_refs, std::uint64_t warmup = 0)
{
    ExperimentPoint p;
    p.workload = workload;
    p.config = cfg;
    p.refs = num_refs;
    p.warmup = warmup;
    return p;
}

/** A malformed TEMPO_* variable is a usage error, as in the tools:
 * print it and exit 2 rather than die on an uncaught exception. */
[[noreturn]] inline void
badEnv(const std::invalid_argument &error)
{
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
}

/** One-time, environment-driven observability setup (TEMPO_TRACE_DIR,
 * TEMPO_TRACE_FILTER, TEMPO_TIMESERIES_WINDOW, TEMPO_TRACE_CAPACITY);
 * safe to call from every batch entry point. */
inline void
configureObsFromEnv()
{
    static const bool once = [] {
        try {
            obs::configure(obs::configFromEnv());
        } catch (const std::invalid_argument &error) {
            badEnv(error);
        }
        return true;
    }();
    (void)once;
}

/** ExperimentOptions::fromEnv(), with TEMPO_JOBS checked as well
 * before any batch starts. */
inline ExperimentOptions
envOptions()
{
    try {
        (void)ThreadPool::defaultThreads();
        return ExperimentOptions::fromEnv();
    } catch (const std::invalid_argument &error) {
        badEnv(error);
    }
}

/** The bench name registered by the JsonRecorder constructor; names
 * the checkpoint directory. Benches run one batch at a time, so one
 * global is enough. */
inline std::string &
currentBenchName()
{
    static std::string name;
    return name;
}

/** Engine options for a bench batch: fault handling and the sweep
 * fabric from the environment (TEMPO_FABRIC_DIR turns any bench driver
 * into a fabric worker, or a coordinator with TEMPO_FABRIC_ROLE; see
 * EXPERIMENTS.md "Fabric sweeps"), or else a per-bench checkpoint
 * directory DIR/<bench> when TEMPO_BENCH_CHECKPOINT_DIR=DIR is set.
 * @throws std::runtime_error when DIR is not a directory. */
inline ExperimentOptions
benchOptions()
{
    ExperimentOptions opts = envOptions();
    if (!currentBenchName().empty())
        opts.progressLabel = currentBenchName();
    const char *dir = envValue("TEMPO_BENCH_CHECKPOINT_DIR");
    if (dir && !currentBenchName().empty() && !opts.fabricActive()) {
        if (!std::filesystem::is_directory(dir))
            throw std::runtime_error(
                std::string("TEMPO_BENCH_CHECKPOINT_DIR: no directory ")
                + dir);
        useCheckpointDir(opts, std::string(dir) + "/"
                                   + currentBenchName());
    }
    return opts;
}

/** Print any captured point failures to stderr. */
template <typename Result>
inline void
reportFailures(const std::vector<Result> &results)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStatus &status = results[i].status;
        if (status.ok())
            continue;
        std::fprintf(stderr,
                     "point %zu: %s after %u attempt(s): %s\n", i,
                     status.codeName(), status.attempts,
                     status.error.c_str());
    }
}

/** Report lookup that tolerates failed points, whose zeroed results
 * carry an empty report: absent keys read 0. */
inline double
rget(const RunResult &result, const std::string &key)
{
    return result.report.has(key) ? result.report.get(key) : 0.0;
}

/** Run all @p points concurrently; results come back in point order,
 * bit-identical to a serial run. Failures are captured per point
 * (reported on stderr and in the bench JSON), not thrown; an
 * infrastructure error (an unusable fabric or checkpoint directory)
 * prints `error: ...` and exits 2. */
inline std::vector<RunResult>
runAll(std::vector<ExperimentPoint> points)
{
    configureObsFromEnv();
    std::vector<RunResult> results;
    try {
        results = runExperiments(points, benchOptions());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
    reportFailures(results);

    // Pipeline traces: one Chrome-trace JSON per point when
    // TEMPO_TRACE_DIR is set. The running index spans batches so a
    // bench with several runAll() calls never overwrites a file;
    // points restored from a shard (cfg.trace unset) are skipped.
    if (!obs::config().traceDir.empty()) {
        static std::size_t trace_index = 0;
        for (const RunResult &result : results) {
            const std::size_t index = trace_index++;
            if (!result.obs || !result.obs->cfg.trace)
                continue;
            const std::string bench = currentBenchName().empty()
                ? "bench" : currentBenchName();
            const std::string path = obs::config().traceDir + "/TRACE_"
                + bench + "_" + std::to_string(index) + ".json";
            try {
                obs::writeChromeTrace(path, *result.obs);
                std::fprintf(stderr, "wrote %s\n", path.c_str());
            } catch (const std::exception &error) {
                std::fprintf(stderr, "error: %s\n", error.what());
            }
        }
    }
    return results;
}

/** Multiprogrammed counterpart of runAll() (no checkpoint or fabric —
 * mixes are few and cheap relative to single-app sweeps). */
inline std::vector<MultiResult>
runAllMix(const std::vector<MixPoint> &points)
{
    ExperimentOptions opts = envOptions();
    std::vector<MultiResult> results = runMixExperiments(points, opts);
    reportFailures(results);
    return results;
}

/**
 * Parallel (baseline, TEMPO) pairs for a workload list under one base
 * config: all 2*N runs execute concurrently, pairs return in name
 * order.
 */
inline std::vector<Pair>
runPairs(const SystemConfig &base_cfg,
         const std::vector<std::string> &names, std::uint64_t num_refs)
{
    SystemConfig tempo_cfg = base_cfg;
    tempo_cfg.withTempo(true);
    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        points.push_back(point(base_cfg, name, num_refs));
        points.push_back(point(tempo_cfg, name, num_refs));
    }
    const std::vector<RunResult> results = runAll(std::move(points));
    std::vector<Pair> pairs;
    pairs.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        pairs.push_back(Pair{results[2 * i], results[2 * i + 1]});
    return pairs;
}

/**
 * Collects every simulation point a bench produces and writes them as
 * BENCH_<name>.json (tempo-bench-1 schema) when write() is called.
 */
class JsonRecorder
{
  public:
    explicit JsonRecorder(std::string bench)
        : bench_(std::move(bench))
    {
        // Register the bench name so runAll() can derive the
        // checkpoint directory; construct the recorder BEFORE the
        // first batch.
        currentBenchName() = bench_;
        configureObsFromEnv();
    }

    /** Record one finished single-app point. */
    void
    add(const std::string &workload,
        std::vector<std::pair<std::string, std::string>> overrides,
        const RunResult &result)
    {
        points_.push_back(
            toBenchPoint(workload, std::move(overrides), result));
    }

    /** Record a point measured by derived metrics only (e.g. the
     * fairness studies, whose unit is a mix, not a single run). */
    void
    addMetrics(const std::string &label,
               std::vector<std::pair<std::string, std::string>> overrides,
               std::vector<std::pair<std::string, double>> counters,
               std::uint64_t runtime_cycles = 0)
    {
        stats::BenchPoint point;
        point.workload = label;
        point.config = std::move(overrides);
        point.runtimeCycles = runtime_cycles;
        point.counters = std::move(counters);
        points_.push_back(std::move(point));
    }

    /** Metrics-only point that carries an engine status (failed mix
     * points record their failure instead of fake metrics). */
    void
    addMetrics(const std::string &label,
               std::vector<std::pair<std::string, std::string>> overrides,
               std::vector<std::pair<std::string, double>> counters,
               const RunStatus &status,
               std::uint64_t runtime_cycles = 0)
    {
        addMetrics(label, std::move(overrides), std::move(counters),
                   runtime_cycles);
        stats::BenchPoint &point = points_.back();
        point.status = status.codeName();
        point.error = status.error;
        point.attempts = status.attempts;
        point.seedUsed = status.seedUsed;
        point.digest = status.digest;
    }

    /** Write BENCH_<bench>.json; prints the path on success. */
    void
    write(std::uint64_t num_refs) const
    {
        std::string dir;
        if (const char *env = std::getenv("TEMPO_BENCH_JSON_DIR"))
            dir = std::string(env) + "/";
        const std::string path = dir + "BENCH_" + bench_ + ".json";
        try {
            stats::writeBenchJson(path, bench_, num_refs,
                                  SystemConfig::skylakeScaled().seed,
                                  points_);
            std::printf("wrote %s\n", path.c_str());
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
        }
    }

  private:
    std::string bench_;
    std::vector<stats::BenchPoint> points_;
};

/**
 * Scale the shared machine for an N-app multiprogrammed run: the LLC
 * grows with core count (the paper's 32-core part shares a large LLC)
 * and the memory system gets more channels, keeping per-core cache and
 * bandwidth shares comparable to the single-app machine.
 */
inline SystemConfig
multiprogMachine(SystemConfig cfg, std::size_t num_apps)
{
    cfg.caches.llc.sizeBytes *= num_apps;
    cfg.dram.channels = 4;
    return cfg;
}

/** The multiprogrammed mixes used for the fairness studies (paper
 * Sec. 6.3: Spec/Parsec applications "with a range of memory
 * intensities"; we mix big-data, medium, and small apps). */
inline std::vector<std::vector<std::string>>
fairnessMixes()
{
    return {
        {"xsbench", "mcf", "lbm.medium", "astar.small", "canneal",
         "milc.medium", "gcc.small", "hmmer.small"},
        {"illustris", "graph500", "libquantum.medium", "bzip2.small",
         "lsh", "lbm.medium", "x264.small", "swaptions.small"},
    };
}

/** Weighted-speedup / max-slowdown of one mix under one config. */
struct FairnessPoint {
    double weightedSpeedup;
    double maxSlowdown;
};

inline FairnessPoint
runMix(const SystemConfig &cfg, const std::vector<std::string> &names,
       const std::vector<Cycle> &alone, std::uint64_t refs_per_app)
{
    MultiSystem system(cfg, makeMix(names, cfg.seed));
    const MultiResult result = system.run(refs_per_app);
    return FairnessPoint{result.weightedSpeedup(alone),
                         result.maxSlowdown(alone)};
}

} // namespace tempo::bench

#endif // TEMPO_BENCH_BENCH_COMMON_HH
