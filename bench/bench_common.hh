/**
 * @file
 * Shared helpers for the figure-reproduction benches. Each bench binary
 * regenerates one table/figure of the paper: same x-axis, same metric,
 * printed as an aligned text table with the paper's expected band noted.
 *
 * The TEMPO_* variables of the run-option table (src/cli/run_options.hh,
 * EXPERIMENTS.md "Run options") set trace lengths, outputs, fault
 * handling, checkpoints and the sweep fabric. Points run concurrently
 * and land in BENCH_<name>.json (tempo-bench-1, src/stats/json.hh).
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

#include "cli/run_options.hh"
#include "workloads/workload.hh"

namespace tempo::bench {

/** This process's run options, read from the environment on first use;
 * a malformed variable is a usage error, as in the tools: exit 2. */
inline const cli::RunOptions &
options()
{
    static const cli::RunOptions run = [] {
        try {
            return cli::RunOptions::fromEnv(cli::kEngine | cli::kObs
                                            | cli::kBench);
        } catch (const std::invalid_argument &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            std::exit(2);
        }
    }();
    return run;
}

/** Single-app trace length. */
inline std::uint64_t
refs()
{
    return options().benchRefs;
}

/** Per-app trace length for multiprogrammed mixes. */
inline std::uint64_t
refsMultiprogrammed()
{
    return options().benchRefsMp;
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

/** A (baseline, TEMPO) pair of one workload. */
struct Pair {
    RunResult base;
    RunResult tempo;
};

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

/** Report lookup that tolerates failed points, whose zeroed results
 * carry an empty report: absent keys read 0. */
inline double
rget(const RunResult &result, const std::string &key)
{
    return result.report.has(key) ? result.report.get(key) : 0.0;
}

/** Weighted-speedup / max-slowdown of one mix under one config. */
struct FairnessPoint {
    double weightedSpeedup;
    double maxSlowdown;
};

/** One bench: runs its batches under options() and records its points
 * into BENCH_<name>.json. An infrastructure error exits 2 and an output
 * that cannot be written exits 1. */
class Bench
{
  public:
    explicit Bench(std::string name) : name_(std::move(name)) {}

    /** Run all @p points concurrently; results come back in point
     * order, bit-identical to a serial run. Checkpoints into
     * TEMPO_BENCH_CHECKPOINT_DIR/<name> when that is set and
     * TEMPO_FABRIC_DIR is not; a DIR that is no directory exits 2. */
    std::vector<RunResult>
    runAll(const std::vector<ExperimentPoint> &points) const
    {
        cli::RunOptions run = options();
        run.engine.progressLabel = name_;
        const std::string &dir = run.benchCheckpointDir;
        std::error_code error;
        if (!dir.empty() && !run.engine.fabricActive()) {
            if (!std::filesystem::is_directory(dir, error)) {
                std::fprintf(stderr, "error: TEMPO_BENCH_CHECKPOINT_DIR: "
                             "no directory %s\n", dir.c_str());
                std::exit(2);
            }
            useCheckpointDir(run.engine, dir + "/" + name_);
        }
        std::vector<RunResult> results;
        exitOn(cli::runBatch(run, name_, points, results));
        return results;
    }

    /** Multiprogrammed counterpart of runAll(). */
    std::vector<MultiResult>
    runAllMix(const std::vector<MixPoint> &points) const
    {
        std::vector<MultiResult> results;
        exitOn(cli::runBatch(options(), points, results));
        return results;
    }

    /**
     * Parallel (baseline, TEMPO) pairs for a workload list under one
     * base config: all 2*N runs execute concurrently, pairs return in
     * name order.
     */
    std::vector<Pair>
    runPairs(const SystemConfig &base_cfg,
             const std::vector<std::string> &names,
             std::uint64_t num_refs) const
    {
        SystemConfig tempo_cfg = base_cfg;
        tempo_cfg.withTempo(true);
        std::vector<ExperimentPoint> points;
        for (const std::string &name : names) {
            points.push_back(point(base_cfg, name, num_refs));
            points.push_back(point(tempo_cfg, name, num_refs));
        }
        const std::vector<RunResult> results = runAll(points);
        std::vector<Pair> pairs;
        pairs.reserve(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            pairs.push_back(Pair{results[2 * i], results[2 * i + 1]});
        return pairs;
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
    /** Record mix @p result as its weighted speedup and maximum
     * slowdown over the @p alone runtimes, zero for a failed mix, whose
     * status the JSON records instead. */
    FairnessPoint
    addMix(const std::string &label,
           std::vector<std::pair<std::string, std::string>> overrides,
           const MultiResult &result, const std::vector<Cycle> &alone)
    {
        const RunStatus &status = result.status;
        const FairnessPoint fairness = status.ok()
            ? FairnessPoint{result.weightedSpeedup(alone),
                            result.maxSlowdown(alone)}
            : FairnessPoint{0, 0};
        stats::BenchPoint &point = points_.emplace_back();
        point.workload = label;
        point.config = std::move(overrides);
        point.runtimeCycles = result.runtime;
        point.counters = {{"weighted_speedup", fairness.weightedSpeedup},
                          {"max_slowdown", fairness.maxSlowdown}};
        point.status = status.codeName();
        point.error = status.error;
        point.attempts = status.attempts;
        point.seedUsed = status.seedUsed;
        point.digest = status.digest;
        return fairness;
    }

    /** Write BENCH_<name>.json; prints the path on success. */
    void
    write(std::uint64_t num_refs) const
    {
        const std::string &dir = options().benchJsonDir;
        exitOn(cli::writeJson(stdout,
                              (dir.empty() ? "" : dir + "/") + "BENCH_"
                                  + name_ + ".json",
                              name_, num_refs,
                              SystemConfig::skylakeScaled().seed,
                              points_));
    }

  private:
    /** Leave with a front-end exit status other than 0. */
    static void
    exitOn(int status)
    {
        if (status)
            std::exit(status);
    }

    std::string name_;
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

} // namespace tempo::bench

#endif // TEMPO_BENCH_BENCH_COMMON_HH
