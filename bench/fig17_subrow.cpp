/**
 * @file
 * Figure 17: sub-row buffers (8 x 1KB per bank, Gulur et al.) under the
 * FOA and POA allocation policies, sweeping how many sub-rows are
 * dedicated to TEMPO's post-translation prefetches. The paper finds
 * that dedicating 2 of 8 is the sweet spot (~15% weighted speedup,
 * ~20% for the slowest app); dedicating too many starves demand.
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 17",
           "sub-row buffers: FOA/POA x dedicated prefetch sub-rows",
           "2 dedicated sub-rows is the sweet spot; more dedication "
           "deprioritizes demand and degrades");

    const std::uint64_t per_app = refsMultiprogrammed();
    const auto mixes = fairnessMixes();
    const unsigned dedications[] = {0, 1, 2, 4, 6};

    Bench bench("fig17_subrow");
    for (const SubRowAlloc alloc : {SubRowAlloc::FOA, SubRowAlloc::POA}) {
        std::printf("\n%s:\n", subRowAllocName(alloc));

        // Baseline: same sub-row organization, no TEMPO.
        SystemConfig base_cfg =
            multiprogMachine(SystemConfig::skylakeScaled(), 8);
        base_cfg.dram.subRowAlloc = alloc;

        std::vector<std::vector<Cycle>> alone;
        for (const auto &mix : mixes)
            alone.push_back(aloneRuntimes(base_cfg, mix, per_app));

        std::vector<MixPoint> base_points;
        for (const auto &mix : mixes)
            base_points.push_back(
                MixPoint{mix, base_cfg, per_app, 0});
        const std::vector<MultiResult> base_results =
            bench.runAllMix(base_points);
        std::vector<FairnessPoint> baseline;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            baseline.push_back(bench.addMix(
                "mix" + std::to_string(m),
                {{"mc.subrow", subRowAllocName(alloc)},
                 {"mc.tempo", "false"}},
                base_results[m], alone[m]));

        // All (dedication, mix) combinations as one parallel batch.
        std::vector<MixPoint> points;
        for (const unsigned dedicated : dedications) {
            SystemConfig cfg = base_cfg;
            cfg.dram.subRowsForPrefetch = dedicated;
            cfg.withTempo(true);
            for (const auto &mix : mixes)
                points.push_back(MixPoint{mix, cfg, per_app, 0});
        }
        const std::vector<MultiResult> results = bench.runAllMix(points);

        std::printf("%12s %20s %20s\n", "dedicated",
                    "d-weighted-speedup%", "d-max-slowdown%");
        for (std::size_t d = 0; d < std::size(dedications); ++d) {
            double ws = 0, slow = 0;
            for (std::size_t m = 0; m < mixes.size(); ++m) {
                const MultiResult &result =
                    results[d * mixes.size() + m];
                const FairnessPoint point = bench.addMix(
                    "mix" + std::to_string(m),
                    {{"mc.subrow", subRowAllocName(alloc)},
                     {"mc.subrow_dedicated",
                      std::to_string(dedications[d])},
                     {"mc.tempo", "true"}},
                    result, alone[m]);
                if (result.status.ok()
                    && baseline[m].weightedSpeedup > 0) {
                    ws += point.weightedSpeedup
                        / baseline[m].weightedSpeedup - 1.0;
                    slow += 1.0
                        - point.maxSlowdown / baseline[m].maxSlowdown;
                }
            }
            std::printf("%12u %20.2f %20.2f\n", dedications[d],
                        pct(ws / mixes.size()),
                        pct(slow / mixes.size()));
        }
    }
    bench.write(per_app);
    footer();
    return 0;
}
