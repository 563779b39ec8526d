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

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cli/options.hh"
#include "common/profiler.hh"
#include "core/experiment.hh"
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
    SystemConfig cfg;
    try {
        options = parse({argv + 1, argv + argc});
        if (options.help) {
            std::fputs(usage().c_str(), stdout);
            return 0;
        }
        cfg = toConfig(options);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    prof::setEnabled(options.profile);

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
    std::vector<ExperimentPoint> points(1);
    points[0].workload = options.workload;
    points[0].config = cfg;
    points[0].refs = options.refs;
    points[0].makeWorkloadFn = workloadFactory(options, cfg.seed);
    if (options.compare) {
        points.push_back(points.front());
        points.back().config.withTempo(true);
    }

    // A failing point does not kill the run: its status is reported
    // and the other point still completes.
    std::vector<RunResult> results;
    if (const int status =
            runBatch(options.run, "tempo_sim", points, results))
        return status;

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

    for (const RunResult &run : results) {
        if (!options.profile || !result.status.ok() || !run.status.ok())
            break;
        std::printf("\n");
        printProfile(run);
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
        if (const int status =
                writeJson(stdout, options.jsonPath, "tempo_sim",
                          options.refs, cfg.seed, bench_points))
            return status;
    }
    return std::ranges::any_of(results, &RunStatus::ok, &RunResult::status)
        ? 0 : 3;
}
