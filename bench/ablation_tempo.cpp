/**
 * @file
 * Ablation study of TEMPO's design choices (DESIGN.md Sec. 4): which
 * part of the mechanism buys what. Variants, each measured against the
 * common no-TEMPO baseline on every big-data workload:
 *
 *   full        — row-buffer + LLC prefetch, Tx-Q grouping, holds
 *   row-only    — prefetch opens the DRAM row but never fills the LLC
 *                 (paper Sec. 2.2 / Fig. 3 distinguishes these stages)
 *   no-grouping — FR-FCFS without the Sec. 4.3(b) PT/prefetch groups
 *   no-holds    — no anticipation delay, no grace period
 *   slow-engine — Prefetch Engine latency 2 -> 20 cycles (how much
 *                 timeliness headroom the slack window leaves)
 *   drop-all    — prefetches always dropped (sanity: must equal ~0)
 */

#include "bench_common.hh"

namespace {

using namespace tempo;

SystemConfig
variant(const std::string &name)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    if (name == "row-only") {
        cfg.mc.tempoLlcFill = false;
    } else if (name == "no-grouping") {
        cfg.mc.tempoGrouping = false;
    } else if (name == "no-holds") {
        cfg.mc.tempoPtRowHold = 0;
        cfg.mc.tempoGracePeriod = 0;
    } else if (name == "slow-engine") {
        cfg.mc.prefetchEngineDelay = 20;
    } else if (name == "drop-all") {
        cfg.mc.prefetchDropDepth = 0;
    }
    return cfg;
}

} // namespace

int
main()
{
    using namespace tempo::bench;

    header("Ablation", "TEMPO variants vs common baseline",
           "full >= row-only > drop-all ~ 0; grouping and engine speed "
           "matter less than the LLC fill");

    const char *variants[] = {"full", "row-only", "no-grouping",
                              "no-holds", "slow-engine", "drop-all"};
    const std::size_t num_variants = std::size(variants);

    std::printf("%-10s", "workload");
    for (const char *v : variants)
        std::printf(" %12s", v);
    std::printf("\n");

    const std::vector<std::string> &names =
        tempo::bigDataWorkloadNames();
    const SystemConfig base_cfg = SystemConfig::skylakeScaled();
    std::vector<tempo::ExperimentPoint> points;
    for (const std::string &name : names) {
        points.push_back(tempo::bench::point(base_cfg, name, refs()));
        for (const char *v : variants)
            points.push_back(
                tempo::bench::point(variant(v), name, refs()));
    }
    Bench bench("ablation_tempo");
    const std::vector<tempo::RunResult> results =
        bench.runAll(points);

    std::size_t idx = 0;
    for (const std::string &name : names) {
        const tempo::RunResult &base = results[idx++];
        bench.add(name, {{"variant", "baseline"}}, base);
        std::printf("%-10s", name.c_str());
        for (std::size_t v = 0; v < num_variants; ++v) {
            const tempo::RunResult &result = results[idx++];
            std::printf(" %11.1f%%", pct(result.speedupOver(base)));
            bench.add(name, {{"variant", variants[v]}}, result);
        }
        std::printf("\n");
    }
    bench.write(refs());
    footer();
    return 0;
}
