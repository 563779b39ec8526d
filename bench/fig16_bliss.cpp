/**
 * @file
 * Figure 16: TEMPO atop the BLISS fairness scheduler on multiprogrammed
 * mixes. Left: fractional improvement in weighted speedup and maximum
 * slowdown as a function of the BLISS counter weight charged to TEMPO
 * prefetches (paper: half the demand weight is best). Right: the same
 * metrics as a function of the post-prefetch grace period (paper: 15
 * cycles is best).
 */

#include "bench_common.hh"

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 16",
           "BLISS fairness scheduler x TEMPO",
           "weighted speedup improves in every configuration; the "
           "slowest app improves ~10%+; best prefetch weight = half "
           "of demand (1 vs 2); best grace period ~15 cycles");

    const std::uint64_t per_app = refsMultiprogrammed();
    const auto mixes = fairnessMixes();

    SystemConfig bliss_cfg =
        multiprogMachine(SystemConfig::skylakeScaled(), 8);
    bliss_cfg.withSched(SchedKind::Bliss);

    // Alone runtimes (shared by every configuration of a mix).
    std::vector<std::vector<Cycle>> alone;
    for (const auto &mix : mixes)
        alone.push_back(aloneRuntimes(bliss_cfg, mix, per_app));

    Bench bench("fig16_bliss");

    // Baseline mixes run together as one parallel batch. A failed mix
    // contributes zero metrics (its status lands in the JSON).
    std::vector<MixPoint> base_points;
    for (const auto &mix : mixes)
        base_points.push_back(
            MixPoint{mix, bliss_cfg, per_app, 0});
    const std::vector<MultiResult> base_results =
        bench.runAllMix(base_points);
    std::vector<FairnessPoint> baseline;
    for (std::size_t m = 0; m < mixes.size(); ++m)
        baseline.push_back(bench.addMix("mix" + std::to_string(m),
                                        {{"mc.tempo", "false"}},
                                        base_results[m], alone[m]));

    auto sweep = [&](const char *title, const char *key,
                     auto config_for, const std::vector<unsigned> &xs) {
        std::printf("\n%s\n", title);
        std::printf("%6s %20s %20s\n", "x", "d-weighted-speedup%",
                    "d-max-slowdown%");
        // All (x, mix) combinations execute as one parallel batch.
        std::vector<MixPoint> points;
        for (const unsigned x : xs)
            for (const auto &mix : mixes)
                points.push_back(
                    MixPoint{mix, config_for(x), per_app, 0});
        const std::vector<MultiResult> results = bench.runAllMix(points);
        for (std::size_t xi = 0; xi < xs.size(); ++xi) {
            double ws = 0, slow = 0;
            for (std::size_t m = 0; m < mixes.size(); ++m) {
                const MultiResult &result =
                    results[xi * mixes.size() + m];
                const FairnessPoint point = bench.addMix(
                    "mix" + std::to_string(m),
                    {{key, std::to_string(xs[xi])}, {"mc.tempo", "true"}},
                    result, alone[m]);
                if (result.status.ok()
                    && baseline[m].weightedSpeedup > 0) {
                    ws += point.weightedSpeedup
                        / baseline[m].weightedSpeedup - 1.0;
                    slow += 1.0
                        - point.maxSlowdown / baseline[m].maxSlowdown;
                }
            }
            std::printf("%6u %20.2f %20.2f\n", xs[xi],
                        pct(ws / mixes.size()),
                        pct(slow / mixes.size()));
        }
    };

    sweep("left: prefetch counter weight (demand weight = 2)",
          "mc.bliss_prefetch_weight",
          [&](unsigned weight) {
              SystemConfig cfg = bliss_cfg;
              cfg.withTempo(true);
              cfg.mc.scheduler.blissPrefetchWeight = weight;
              return cfg;
          },
          {0, 1, 2, 3, 4});

    sweep("right: grace period after prefetch (cycles)",
          "mc.grace_period",
          [&](unsigned grace) {
              SystemConfig cfg = bliss_cfg;
              cfg.withTempo(true);
              cfg.mc.tempoGracePeriod = grace;
              return cfg;
          },
          {0, 5, 15, 30, 60});

    bench.write(per_app);
    footer();
    return 0;
}
