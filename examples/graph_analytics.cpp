/**
 * @file
 * Example: a graph-analytics capacity-planning study.
 *
 * Scenario: you run BFS-style graph workloads (graph500) on big-memory
 * servers and want to know where the time goes — and whether a
 * TEMPO-equipped memory controller would pay for itself — across page
 * table configurations your fleet actually uses (THP on/off, explicit
 * hugepages).
 *
 * Demonstrates: per-component statistics, the runtime-attribution API,
 * and sweeping OS-level page policies from application code.
 */

#include <cstdio>
#include <cstdlib>

#include "core/system.hh"
#include "workloads/workload.hh"

namespace {

void
study(const char *label, tempo::PagePolicy policy, double frag,
      std::uint64_t refs)
{
    using namespace tempo;

    SystemConfig base_cfg = SystemConfig::skylakeScaled();
    base_cfg.vm.policy = policy;
    base_cfg.os.fragLevel = frag;
    SystemConfig tempo_cfg = base_cfg;
    tempo_cfg.withTempo(true);

    const RunResult base = runWorkload(base_cfg, "graph500", refs);
    const RunResult with_tempo =
        runWorkload(tempo_cfg, "graph500", refs);

    std::printf("%-22s | cov %5.1f%% | TLB miss %5.1f%% | "
                "PTW-DRAM %4.1f%% replay-DRAM %4.1f%% | "
                "TEMPO: perf %+5.1f%% energy %+5.1f%%\n",
                label, 100.0 * base.superpageCoverage,
                100.0 * base.report.get("tlb.miss_rate"),
                100.0 * base.fracRuntimePtwDram(),
                100.0 * base.fracRuntimeReplayDram(),
                100.0 * with_tempo.speedupOver(base),
                100.0 * with_tempo.energySavingOver(base));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tempo;

    const std::uint64_t refs =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;

    std::printf("graph500 BFS on a scaled big-memory server "
                "(%llu refs per point)\n\n",
                static_cast<unsigned long long>(refs));

    study("THP (default fleet)", PagePolicy::Thp, 0.0, refs);
    study("THP, fragmented 50%", PagePolicy::Thp, 0.5, refs);
    study("4KB only (THP off)", PagePolicy::Base4K, 0.0, refs);
    study("hugetlbfs 2MB", PagePolicy::Hugetlbfs2M, 0.0, refs);

    std::printf("\nReading the row: 'PTW-DRAM' and 'replay-DRAM' are "
                "the runtime shares the paper's Figure 1 plots; TEMPO "
                "attacks the replay share.\n");
    return 0;
}
