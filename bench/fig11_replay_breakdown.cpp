/**
 * @file
 * Figure 11 (left): where TEMPO-eligible replays are serviced — the LLC
 * (prefetch landed in time), the DRAM row buffer / an in-flight
 * prefetch (partial overlap), or the DRAM array (the pathological
 * unaided tail).
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 11 (left)",
           "replay service points under TEMPO",
           "75%+ of replays serviced from the LLC; most of the rest "
           "from the row buffer / overlapping prefetch; only a tiny "
           "unaided tail");

    std::printf("%-10s %8s %18s %10s %10s\n", "workload", "LLC%",
                "rowbuf+overlap%", "unaided%", "L1/L2%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    std::vector<ExperimentPoint> points;
    for (const std::string &name : names)
        points.push_back(point(cfg, name, refs()));
    Bench bench("fig11_replay_breakdown");
    const std::vector<RunResult> results = bench.runAll(points);

    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunResult &result = results[i];
        const CoreStats &core = result.core;
        bench.add(names[i], {{"mc.tempo", "true"}}, result);
        const double total =
            static_cast<double>(core.replayAfterDramWalk);
        if (total == 0) {
            std::printf("%-10s (no eligible replays)\n",
                        names[i].c_str());
            continue;
        }
        std::printf("%-10s %8.1f %18.1f %10.1f %10.1f\n",
                    names[i].c_str(),
                    pct(core.replayLlcHits / total),
                    pct((core.replayRowHits + core.replayMerged)
                        / total),
                    pct(core.replayArray / total),
                    pct(core.replayPrivateHits / total));
    }
    bench.write(refs());
    footer();
    return 0;
}
