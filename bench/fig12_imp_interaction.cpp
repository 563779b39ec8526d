/**
 * @file
 * Figure 12: TEMPO's benefits with and without the IMP indirect memory
 * prefetcher (Sec. 4.2). The paper's claim — "TEMPO improves the
 * performance of systems using IMP by as much as 40%, going beyond its
 * 10-30% improvements of systems without prefetching" — is reported
 * here as the combined IMP+TEMPO improvement over the no-prefetching
 * baseline, alongside the IMP-relative TEMPO delta.
 *
 * Mechanics reproduced: IMP's cross-page prefetches do their own page
 * table walks (thrashing the TLB and generating extra DRAM PT accesses
 * that trigger TEMPO), and its mispredicted prefetches waste bandwidth
 * that TEMPO's row-buffer hits partially recover.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 12",
           "TEMPO x IMP prefetcher interaction",
           "combined IMP+TEMPO reaches well beyond TEMPO-alone "
           "(paper: up to ~40% vs 10-30%); energy tracks performance");

    std::printf("%-10s | %12s %12s %14s | %12s\n", "workload",
                "TEMPO alone%", "TEMPO on IMP%", "IMP+TEMPO tot%",
                "energy tot%");
    const std::uint64_t n = refs();
    const std::vector<std::string> &names = bigDataWorkloadNames();

    // Four points per workload: (plain, IMP) x (baseline, TEMPO).
    const SystemConfig plain_cfg = SystemConfig::skylakeScaled();
    SystemConfig plain_tempo_cfg = plain_cfg;
    plain_tempo_cfg.withTempo(true);
    SystemConfig imp_cfg = SystemConfig::skylakeScaled();
    imp_cfg.withPrefetchers("imp");
    SystemConfig imp_tempo_cfg = imp_cfg;
    imp_tempo_cfg.withTempo(true);

    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        points.push_back(point(plain_cfg, name, n));
        points.push_back(point(plain_tempo_cfg, name, n));
        points.push_back(point(imp_cfg, name, n));
        points.push_back(point(imp_tempo_cfg, name, n));
    }
    Bench bench("fig12_imp_interaction");
    const std::vector<RunResult> results = bench.runAll(points);

    for (std::size_t i = 0; i < names.size(); ++i) {
        const Pair plain{results[4 * i], results[4 * i + 1]};
        const Pair with_imp{results[4 * i + 2], results[4 * i + 3]};

        // Combined improvement of the full IMP+TEMPO system over the
        // original no-prefetching baseline.
        const double combined = with_imp.tempo.speedupOver(plain.base);
        const double combined_energy =
            with_imp.tempo.energySavingOver(plain.base);

        std::printf("%-10s | %12.1f %12.1f %14.1f | %12.1f\n",
                    names[i].c_str(),
                    pct(plain.tempo.speedupOver(plain.base)),
                    pct(with_imp.tempo.speedupOver(with_imp.base)),
                    pct(combined), pct(combined_energy));
        bench.add(names[i], {{"imp.enabled", "false"},
                            {"mc.tempo", "false"}}, plain.base);
        bench.add(names[i], {{"imp.enabled", "false"},
                            {"mc.tempo", "true"}}, plain.tempo);
        bench.add(names[i], {{"imp.enabled", "true"},
                            {"mc.tempo", "false"}}, with_imp.base);
        bench.add(names[i], {{"imp.enabled", "true"},
                            {"mc.tempo", "true"}}, with_imp.tempo);
    }
    bench.write(n);
    footer();
    return 0;
}
