/**
 * @file
 * tempo_sim: the command-line simulator driver.
 *
 *   tempo_sim --workload xsbench --refs 500000 --compare
 *   tempo_sim --workload graph500 --tempo --sched bliss --full-report
 *   tempo_sim --workload spmv --trace-out spmv.trace --refs 1000000
 *   tempo_sim --trace-in spmv.trace --compare --json result.json
 *
 * --compare runs baseline and TEMPO as two points on the parallel
 * experiment engine (--jobs N); results are identical at any job
 * count.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cli/options.hh"
#include "common/profiler.hh"
#include "core/experiment.hh"
#include "obs/obs.hh"
#include "trace/trace.hh"

namespace {

using namespace tempo;

/** A thread-safe workload factory for one engine point. Traces are
 * loaded once, up front, and copied per point. */
std::function<std::unique_ptr<Workload>()>
workloadFactory(const cli::Options &options, std::uint64_t seed)
{
    if (!options.traceIn.empty()) {
        auto trace = std::make_shared<Trace>(readTrace(options.traceIn));
        return [trace] {
            return std::make_unique<TraceWorkload>(*trace);
        };
    }
    const std::string name = options.workload;
    return [name, seed] { return makeWorkload(name, seed); };
}

void
printProfile(const RunResult &result)
{
    std::printf("profile (wall-clock, nondeterministic):\n");
    for (std::size_t i = 0; i < prof::kNumComponents; ++i) {
        const std::string name =
            prof::componentName(static_cast<prof::Component>(i));
        std::printf("  %-9s : %9.2f ms  (%llu scopes)\n", name.c_str(),
                    result.report.get("profile." + name + "_ms"),
                    static_cast<unsigned long long>(result.report.get(
                        "profile." + name + "_calls")));
    }
    std::printf("  %-9s : %9.2f ms  (%llu events)\n", "total",
                result.report.get("profile.total_ms"),
                static_cast<unsigned long long>(
                    result.report.get("profile.events_executed")));
}

void
printSummary(const char *label, const RunResult &result)
{
    std::printf("%s:\n", label);
    std::printf("  runtime              : %llu cycles\n",
                static_cast<unsigned long long>(result.runtime));
    std::printf("  energy               : %.1f\n",
                result.energy.total());
    std::printf("  TLB miss rate        : %.2f%%\n",
                100.0 * result.report.get("tlb.miss_rate"));
    std::printf("  DRAM refs PTW/replay : %.1f%% / %.1f%%\n",
                100.0 * result.fracDramPtw(),
                100.0 * result.fracDramReplay());
    std::printf("  superpage coverage   : %.1f%%\n",
                100.0 * result.superpageCoverage);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tempo::cli;

    Options options;
    try {
        options = parse({argv + 1, argv + argc});
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    if (options.help) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }

    SystemConfig cfg;
    obs::Config obs_cfg;
    ExperimentOptions engine_opts;
    try {
        cfg = toConfig(options);
        obs_cfg = obs::configFromEnv();
        engine_opts = ExperimentOptions::fromEnv();
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    prof::setEnabled(options.profile);

    // Observability: environment first, explicit flags on top.
    if (!options.tracePath.empty())
        obs_cfg.trace = true;
    if (!options.traceFilter.empty())
        obs_cfg.categories = obs::parseCategories(options.traceFilter);
    if (options.timeseriesWindow > 0)
        obs_cfg.timeseriesWindow = options.timeseriesWindow;
    obs::configure(obs_cfg);

    if (!options.traceOut.empty()) {
        auto workload = workloadFactory(options, cfg.seed)();
        const Trace trace = recordTrace(*workload, options.refs);
        writeTrace(trace, options.traceOut);
        std::printf("recorded %llu refs of %s to %s\n",
                    static_cast<unsigned long long>(trace.refs.size()),
                    trace.name.c_str(), options.traceOut.c_str());
        return 0;
    }

    // Point 0: the configured run. Point 1 (--compare): TEMPO on the
    // same machine. Both run concurrently on the experiment engine.
    std::vector<ExperimentPoint> points;
    ExperimentPoint first;
    first.workload = options.workload;
    first.config = cfg;
    first.refs = options.refs;
    first.makeWorkloadFn = workloadFactory(options, cfg.seed);
    points.push_back(std::move(first));
    if (options.compare) {
        SystemConfig tempo_cfg = cfg;
        tempo_cfg.withTempo(true);
        ExperimentPoint second;
        second.workload = options.workload;
        second.config = tempo_cfg;
        second.refs = options.refs;
        second.makeWorkloadFn = workloadFactory(options, tempo_cfg.seed);
        points.push_back(std::move(second));
    }

    // Engine options: environment first (so CI can inject faults), then
    // explicit flags on top. A failing point no longer kills the run —
    // its status is reported and the other point still completes.
    engine_opts.jobs = options.jobs;
    if (options.retries)
        engine_opts.retries = options.retries;
    if (options.pointTimeout > 0)
        engine_opts.pointTimeoutSec = options.pointTimeout;
    if (!options.checkpointDir.empty())
        useCheckpointDir(engine_opts, options.checkpointDir);

    std::vector<RunResult> results;
    try {
        results = runExperiments(points, engine_opts);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }

    std::size_t num_ok = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStatus &status = results[i].status;
        if (status.ok()) {
            ++num_ok;
            continue;
        }
        std::fprintf(stderr,
                     "point %zu (%s): %s after %u attempt(s): %s\n", i,
                     points[i].workload.c_str(), status.codeName(),
                     status.attempts, status.error.c_str());
    }

    // Pipeline traces: the explicit --trace path names point 0; extra
    // points (--compare) get ".1", ".2", ... suffixes. With only
    // TEMPO_TRACE_DIR set, files land there as TRACE_tempo_sim_<i>.json.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &run_obs = results[i].obs;
        if (!run_obs || !run_obs->cfg.trace)
            continue; // obs off, or point restored from a checkpoint
        std::string path = options.tracePath;
        if (!path.empty()) {
            if (i > 0)
                path += "." + std::to_string(i);
        } else if (!obs::config().traceDir.empty()) {
            path = obs::config().traceDir + "/TRACE_tempo_sim_"
                + std::to_string(i) + ".json";
        } else {
            continue;
        }
        try {
            obs::writeChromeTrace(path, *run_obs);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 1;
        }
        std::printf("wrote %s (%llu events, %llu dropped)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        run_obs->events.size()),
                    static_cast<unsigned long long>(
                        run_obs->droppedEvents));
    }

    const RunResult &result = results.front();
    if (result.status.ok())
        printSummary(cfg.mc.tempoEnabled ? "TEMPO" : "baseline", result);

    if (options.compare) {
        const RunResult &with_tempo = results.back();
        if (with_tempo.status.ok())
            printSummary("TEMPO", with_tempo);
        if (result.status.ok() && with_tempo.status.ok())
            std::printf("\nTEMPO improvement: performance %+.1f%%, "
                        "energy %+.1f%%\n",
                        100.0 * with_tempo.speedupOver(result),
                        100.0 * with_tempo.energySavingOver(result));
    }

    if (options.profile && result.status.ok()) {
        std::printf("\n");
        printProfile(result);
        if (options.compare && results.back().status.ok()) {
            std::printf("\n");
            printProfile(results.back());
        }
    }

    if (options.fullReport && result.status.ok()) {
        std::printf("\nfull report:\n");
        result.report.printText(std::cout);
    }
    if (!options.csvPath.empty()) {
        std::ofstream csv(options.csvPath);
        if (!csv) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         options.csvPath.c_str());
            return 1;
        }
        result.report.printCsv(csv);
        std::printf("wrote %s\n", options.csvPath.c_str());
    }
    if (!options.jsonPath.empty()) {
        std::vector<stats::BenchPoint> bench_points;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const bool tempo_on =
                points[i].config.mc.tempoEnabled;
            bench_points.push_back(toBenchPoint(
                points[i].workload,
                {{"mc.tempo", tempo_on ? "true" : "false"}}, results[i]));
        }
        try {
            stats::writeBenchJson(options.jsonPath, "tempo_sim",
                                  options.refs, cfg.seed, bench_points);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 1;
        }
        std::printf("wrote %s\n", options.jsonPath.c_str());
    }
    return num_ok == 0 ? 3 : 0;
}
