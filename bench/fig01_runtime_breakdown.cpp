/**
 * @file
 * Figure 1: fraction of total application runtime spent on DRAM page
 * table accesses (DRAM-PTW-Access), DRAM accesses for post-walk replays
 * (DRAM-Replay-Access), and all other DRAM accesses (DRAM-Other), for
 * the eight big-data workloads on the baseline (no-TEMPO) machine.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 1", "runtime breakdown of DRAM overheads (baseline)",
           "DRAM-PTW-Access ~5-25%, DRAM-Replay-Access ~10-30% (nearly "
           "as large as PTW), DRAM-Other substantial");

    std::printf("%-10s %14s %17s %12s %12s\n", "workload",
                "DRAM-PTW-Acc%", "DRAM-Replay-Acc%", "DRAM-Other%",
                "non-DRAM%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    const SystemConfig cfg = SystemConfig::skylakeScaled();
    std::vector<ExperimentPoint> points;
    for (const std::string &name : names)
        points.push_back(point(cfg, name, refs()));
    Bench bench("fig01_runtime_breakdown");
    const std::vector<RunResult> results = bench.runAll(points);

    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunResult &result = results[i];
        const double ptw = result.fracRuntimePtwDram();
        const double replay = result.fracRuntimeReplayDram();
        const double other = result.fracRuntimeOtherDram();
        std::printf("%-10s %14.1f %17.1f %12.1f %12.1f\n",
                    names[i].c_str(), pct(ptw), pct(replay), pct(other),
                    pct(1.0 - ptw - replay - other));
        bench.add(names[i], {{"mc.tempo", "false"}}, result);
    }
    bench.write(refs());
    footer();
    return 0;
}
