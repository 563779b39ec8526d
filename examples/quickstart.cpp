/**
 * @file
 * Quickstart: run one big-data workload with and without TEMPO on the
 * default scaled-Skylake machine and print the headline numbers —
 * the 30-second tour of the library's public API.
 *
 * Usage: quickstart [workload] [refs]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/system.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace tempo;

    const std::string name = argc > 1 ? argv[1] : "xsbench";
    const std::uint64_t refs =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200000;

    // 1. Configure a machine. skylakeScaled() is the paper's baseline:
    //    FR-FCFS scheduling, adaptive row policy, one 8KB row buffer.
    SystemConfig base = SystemConfig::skylakeScaled();

    // 2. Run the baseline.
    std::printf("running %s for %llu refs (baseline)...\n", name.c_str(),
                static_cast<unsigned long long>(refs));
    const RunResult baseline = runWorkload(base, name, refs);

    // 3. Flip on TEMPO — one switch on the memory controller — and run
    //    the identical trace again.
    SystemConfig tempo_cfg = base;
    tempo_cfg.withTempo(true);
    std::printf("running %s for %llu refs (TEMPO)...\n", name.c_str(),
                static_cast<unsigned long long>(refs));
    const RunResult with_tempo = runWorkload(tempo_cfg, name, refs);

    // 4. Compare.
    std::printf("\n=== %s ===\n", name.c_str());
    std::printf("baseline runtime        : %llu cycles\n",
                static_cast<unsigned long long>(baseline.runtime));
    std::printf("TEMPO runtime           : %llu cycles\n",
                static_cast<unsigned long long>(with_tempo.runtime));
    std::printf("performance improvement : %.1f%%\n",
                100.0 * with_tempo.speedupOver(baseline));
    std::printf("energy saving           : %.1f%%\n",
                100.0 * with_tempo.energySavingOver(baseline));
    std::printf("superpage coverage      : %.0f%%\n",
                100.0 * baseline.superpageCoverage);
    std::printf("\nbaseline DRAM reference mix (paper Fig. 4):\n");
    std::printf("  page-table walks : %.1f%%\n",
                100.0 * baseline.fracDramPtw());
    std::printf("  replays          : %.1f%%\n",
                100.0 * baseline.fracDramReplay());
    std::printf("  other            : %.1f%%\n",
                100.0 * baseline.fracDramOther());
    std::printf("\nbaseline runtime attribution (paper Fig. 1):\n");
    std::printf("  DRAM-PTW-Access    : %.1f%%\n",
                100.0 * baseline.fracRuntimePtwDram());
    std::printf("  DRAM-Replay-Access : %.1f%%\n",
                100.0 * baseline.fracRuntimeReplayDram());
    std::printf("  DRAM-Other         : %.1f%%\n",
                100.0 * baseline.fracRuntimeOtherDram());

    const auto &tempo_core = with_tempo.core();
    std::printf("\nTEMPO replay service points (paper Fig. 11):\n");
    std::printf("  LLC hits        : %llu\n",
                static_cast<unsigned long long>(
                    tempo_core.replayLlcHits));
    std::printf("  row-buffer hits : %llu\n",
                static_cast<unsigned long long>(
                    tempo_core.replayRowHits));
    std::printf("  DRAM array      : %llu\n",
                static_cast<unsigned long long>(tempo_core.replayArray));
    std::printf("\nbaseline TLB miss rate  : %.2f%%\n",
                100.0 * baseline.report.get("tlb.miss_rate"));
    std::printf("walks w/ leaf PTE in DRAM: %llu of %llu\n",
                static_cast<unsigned long long>(
                    baseline.core().walksWithLeafDram),
                static_cast<unsigned long long>(baseline.core().walks));
    return 0;
}
