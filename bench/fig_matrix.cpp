/**
 * @file
 * TEMPO x prefetcher interaction matrix (Sec. 4.2 generalized). The
 * paper's orthogonality argument — TEMPO prefetches the *translation
 * replay target* from the memory controller, so it composes with any
 * core-side data prefetcher — is tested here across the whole registry:
 * {none, stride, imp, tskid, misb, temporal} x {TEMPO off, TEMPO on}
 * over the big-data workload set.
 *
 * For every engine the table reports TEMPO's speedup on top of that
 * engine (the paper's claim: positive everywhere, largest where the
 * engine's extra page-table walks feed TEMPO) plus the engine's
 * prefetch accuracy from the registry taxonomy (useful / issued).
 *
 * Emits tempo-bench-1 JSON (BENCH_fig_matrix.json) with one point per
 * (engine, tempo, workload) cell; engine cells carry the full
 * prefetch.<name>.* taxonomy so the CI matrix-smoke job can check
 * useful + late + useless == issued on real runs.
 */

#include "bench_common.hh"

#include <array>

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Interaction matrix",
           "TEMPO x {none, stride, imp, tskid, misb, temporal}",
           "TEMPO helps under every engine (Sec. 4.2 orthogonality); "
           "prefetch-heavy engines walk more, so TEMPO recovers more");

    const std::uint64_t n = refs();
    const std::vector<std::string> &names = bigDataWorkloadNames();
    constexpr std::array<const char *, 6> kEngines = {
        "none", "stride", "imp", "tskid", "misb", "temporal",
    };

    // 2 * |engines| configs; the engine cells report the
    // prefetch.<name>.* taxonomy.
    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        for (const char *engine : kEngines) {
            for (const bool tempo : {false, true}) {
                SystemConfig cfg = SystemConfig::skylakeScaled();
                cfg.withPrefetchers(engine);
                cfg.withTempo(tempo);
                points.push_back(point(cfg, name, n));
            }
        }
    }

    Bench bench("fig_matrix");
    const std::vector<RunResult> results = bench.runAll(points);

    std::printf("%-10s | %-8s | %12s %12s %12s %12s\n", "workload",
                "engine", "TEMPO dC%", "accuracy%", "late%", "energy%");
    const std::size_t cells = kEngines.size() * 2;
    for (std::size_t w = 0; w < names.size(); ++w) {
        for (std::size_t e = 0; e < kEngines.size(); ++e) {
            const RunResult &base = results[w * cells + 2 * e];
            const RunResult &tempo = results[w * cells + 2 * e + 1];
            const std::string prefix =
                std::string("prefetch.") + kEngines[e] + ".";
            const double issued = rget(base, prefix + "issued");
            const double useful = rget(base, prefix + "useful");
            const double late = rget(base, prefix + "late");
            std::printf("%-10s | %-8s | %12.1f %12.1f %12.1f %12.1f\n",
                        names[w].c_str(), kEngines[e],
                        pct(tempo.speedupOver(base)),
                        issued > 0 ? pct(useful / issued) : 0.0,
                        issued > 0 ? pct(late / issued) : 0.0,
                        pct(tempo.energySavingOver(base)));
            bench.add(names[w],
                     {{"prefetch.engines", kEngines[e]},
                      {"mc.tempo", "false"}}, base);
            bench.add(names[w],
                     {{"prefetch.engines", kEngines[e]},
                      {"mc.tempo", "true"}}, tempo);
        }
    }
    bench.write(n);
    footer();
    return 0;
}
