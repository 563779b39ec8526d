/**
 * @file
 * Figure 4: fraction of total DRAM references devoted to page-table
 * walk accesses, replay accesses, and other accesses — plus the two
 * side observations quoted in Secs. 1/2.2: 96%+ of DRAM page-table
 * accesses are for leaf PTs, and 98%+ of DRAM page-table walks are
 * followed by a DRAM access for the replay.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 4",
           "DRAM reference breakdown (baseline)",
           "DRAM-PTW-Access 20-40% of DRAM references; "
           "DRAM-Replay-Access comparable; leaf PTEs ~96%+ of PT DRAM "
           "traffic; 98%+ of DRAM walks followed by DRAM replays");

    std::printf("%-10s %10s %12s %10s | %10s %15s\n", "workload",
                "PTW%", "Replay%", "Other%", "leaf-PT%",
                "replay-follows%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    const SystemConfig cfg = SystemConfig::skylakeScaled();
    std::vector<ExperimentPoint> points;
    for (const std::string &name : names)
        points.push_back(point(cfg, name, refs()));
    Bench bench("fig04_dram_breakdown");
    const std::vector<RunResult> results = bench.runAll(points);

    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunResult &result = results[i];
        const CoreStats &core = result.core;
        std::printf("%-10s %10.1f %12.1f %10.1f | %10.1f %15.1f\n",
                    names[i].c_str(), pct(result.fracDramPtw()),
                    pct(result.fracDramReplay()),
                    pct(result.fracDramOther()),
                    pct(stats::ratio(core.leafPtDramAccesses,
                                     core.ptDramAccesses)),
                    pct(stats::ratio(core.replayDramAfterDramWalk,
                                     core.replayAfterDramWalk)));
        bench.add(names[i], {{"mc.tempo", "false"}}, result);
    }
    bench.write(refs());
    footer();
    return 0;
}
