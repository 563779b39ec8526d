/**
 * @file
 * Figure 15: the PT-row anticipation delay sweep. After serving a page
 * table access, TEMPO leaves the row open for a few cycles anticipating
 * more PT requests to the same row (Sec. 4.3a). The paper finds 5-10
 * cycles gain ~1-4% over wait=0, while 15 cycles starts to hurt by
 * delaying prefetches and demand accesses.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 15",
           "TEMPO benefit vs PT-row anticipation delay (cycles)",
           "sweet spot around 10 cycles; 15 no better or slightly "
           "worse (y-axis is zoomed in the paper: differences are "
           "single percents)");

    const Cycle waits[] = {0, 5, 10, 15};
    const std::size_t num_waits = std::size(waits);
    std::printf("%-10s %8s %8s %8s %8s\n", "workload", "wait0%",
                "wait5%", "wait10%", "wait15%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    const SystemConfig base_cfg = SystemConfig::skylakeScaled();

    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        points.push_back(point(base_cfg, name, refs()));
        for (const Cycle wait : waits) {
            SystemConfig cfg = base_cfg;
            cfg.withTempo(true);
            cfg.mc.tempoPtRowHold = wait;
            points.push_back(point(cfg, name, refs()));
        }
    }
    Bench bench("fig15_pt_wait");
    const std::vector<RunResult> results = bench.runAll(points);

    std::size_t idx = 0;
    for (const std::string &name : names) {
        const RunResult &base = results[idx++];
        bench.add(name, {{"mc.tempo", "false"}}, base);
        std::printf("%-10s", name.c_str());
        for (std::size_t w = 0; w < num_waits; ++w) {
            const RunResult &result = results[idx++];
            std::printf(" %8.2f", pct(result.speedupOver(base)));
            bench.add(name,
                     {{"mc.tempo", "true"},
                      {"mc.pt_row_hold",
                       std::to_string(waits[w])}},
                     result);
        }
        std::printf("\n");
    }
    bench.write(refs());
    footer();
    return 0;
}
