/**
 * @file
 * Figure 10: TEMPO's performance (left axis, blue in the paper) and
 * energy (green) improvements as a fraction of baseline execution, plus
 * the fraction of the memory footprint backed by 2MB superpages (right
 * graph). Footer reports the hardware-overhead numbers from Sec. 4.1.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 10",
           "TEMPO performance & energy improvement + 2MB coverage",
           "performance +10-30% (xsbench near the top), energy +1-14%, "
           ">50% of footprint in 2MB superpages, no workload hurt");

    std::printf("%-10s %8s %8s %14s\n", "workload", "perf%", "energy%",
                "2MB-coverage%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    Bench bench("fig10_perf_energy");
    const std::vector<Pair> pairs =
        bench.runPairs(SystemConfig::skylakeScaled(), names, refs());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Pair &pair = pairs[i];
        std::printf("%-10s %8.1f %8.1f %14.1f\n", names[i].c_str(),
                    pct(pair.tempo.speedupOver(pair.base)),
                    pct(pair.tempo.energySavingOver(pair.base)),
                    pct(pair.base.coverage2M));
        bench.add(names[i], {{"mc.tempo", "false"}}, pair.base);
        bench.add(names[i], {{"mc.tempo", "true"}}, pair.tempo);
    }

    const EnergyConfig energy;
    std::printf("\nhardware overheads (paper Sec. 4.1, synthesis): "
                "memory controller +%.1f%%, page table walker +%.1f%% "
                "(paper: +3%% / +0.5%%)\n",
                pct(energy.tempoMcAreaOverhead),
                pct(energy.tempoWalkerAreaOverhead));
    bench.write(refs());
    footer();
    return 0;
}
