/**
 * @file
 * Figure 14: TEMPO's performance improvement under adaptive, open, and
 * closed row-buffer management, each normalized to a baseline running
 * the *same* policy without TEMPO.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 14",
           "TEMPO benefit per row-buffer policy",
           "TEMPO improves every policy on every workload; exact "
           "ordering is workload-dependent (canneal likes open rows, "
           "illustris is best with closed rows)");

    std::printf("%-10s %10s %10s %10s\n", "workload", "adaptive%",
                "open%", "closed%");
    const std::vector<std::string> &names = bigDataWorkloadNames();
    const RowPolicyKind kinds[] = {RowPolicyKind::Adaptive,
                                   RowPolicyKind::Open,
                                   RowPolicyKind::Closed};

    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        for (const RowPolicyKind kind : kinds) {
            SystemConfig cfg = SystemConfig::skylakeScaled();
            cfg.dram.rowPolicy = kind;
            SystemConfig tempo_cfg = cfg;
            tempo_cfg.withTempo(true);
            points.push_back(point(cfg, name, refs()));
            points.push_back(point(tempo_cfg, name, refs()));
        }
    }
    Bench bench("fig14_row_policies");
    const std::vector<RunResult> results = bench.runAll(points);

    std::size_t idx = 0;
    for (const std::string &name : names) {
        double benefit[3];
        for (int i = 0; i < 3; ++i, idx += 2) {
            const Pair pair{results[idx], results[idx + 1]};
            benefit[i] = pair.tempo.speedupOver(pair.base);
            bench.add(name,
                     {{"dram.row_policy", rowPolicyName(kinds[i])},
                      {"mc.tempo", "false"}},
                     pair.base);
            bench.add(name,
                     {{"dram.row_policy", rowPolicyName(kinds[i])},
                      {"mc.tempo", "true"}},
                     pair.tempo);
        }
        std::printf("%-10s %10.1f %10.1f %10.1f\n", name.c_str(),
                    pct(benefit[0]), pct(benefit[1]), pct(benefit[2]));
    }
    bench.write(refs());
    footer();
    return 0;
}
