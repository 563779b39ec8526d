/**
 * @file
 * Figure 11 (right): TEMPO on smaller-footprint Spec/Parsec workloads —
 * the do-no-harm study. The paper reports ~1-2% performance and ~1%
 * energy improvements, and crucially not a single slowdown.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 11 (right)",
           "small-footprint workloads: TEMPO does no harm",
           "every workload >= 0%; typical gains ~1-2% perf, ~1% energy");

    std::printf("%-18s %8s %8s %12s\n", "workload", "perf%", "energy%",
                "TLB-miss%");
    bool any_harm = false;
    const std::vector<std::string> &names = smallWorkloadNames();
    Bench bench("fig11_small_footprint");
    const std::vector<Pair> pairs =
        bench.runPairs(SystemConfig::skylakeScaled(), names, refs());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Pair &pair = pairs[i];
        const double perf = pair.tempo.speedupOver(pair.base);
        const double energy = pair.tempo.energySavingOver(pair.base);
        any_harm |= perf < -0.005 || energy < -0.005;
        std::printf("%-18s %8.1f %8.1f %12.1f\n", names[i].c_str(),
                    pct(perf), pct(energy),
                    pct(rget(pair.base, "tlb.miss_rate")));
        bench.add(names[i], {{"mc.tempo", "false"}}, pair.base);
        bench.add(names[i], {{"mc.tempo", "true"}}, pair.tempo);
    }
    bench.write(refs());
    std::printf("\n%s\n", any_harm
                              ? "WARNING: a workload was harmed"
                              : "no workload harmed (matches paper)");
    footer();
    return 0;
}
