/**
 * @file
 * Example: memory-scheduler bake-off for a multiprogrammed consolidation
 * scenario.
 *
 * Scenario: eight tenants — two big-data analytics jobs, two
 * medium-intensity batch jobs, four latency-tolerant small jobs — share
 * one memory controller. Compare FR-FCFS vs BLISS, with and without
 * TEMPO, on weighted speedup and worst-tenant slowdown.
 *
 * Demonstrates: a multi-app System, the fairness metrics, scheduler
 * selection, and per-app statistics.
 */

#include <cstdio>
#include <cstdlib>

#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace tempo;

    const std::uint64_t refs_per_app =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;

    const WorkloadList tenants = {
        "xsbench",       "graph500",     "lbm.medium",
        "milc.medium",   "astar.small",  "gcc.small",
        "hmmer.small",   "swaptions.small"};

    std::printf("8 tenants sharing one memory system, %llu refs each\n\n",
                static_cast<unsigned long long>(refs_per_app));

    struct Variant {
        const char *label;
        SchedKind sched;
        bool tempo;
    };
    const Variant variants[] = {
        {"FR-FCFS", SchedKind::FrFcfs, false},
        {"FR-FCFS + TEMPO", SchedKind::FrFcfs, true},
        {"BLISS", SchedKind::Bliss, false},
        {"BLISS + TEMPO", SchedKind::Bliss, true},
    };

    // Alone runtimes under the FR-FCFS machine are the common
    // denominator for all fairness metrics.
    ExperimentPoint mix;
    mix.workload = tenants;
    mix.config = SystemConfig::skylakeScaled();
    mix.refs = refs_per_app;
    const std::vector<Cycle> alone = aloneRuntimes(mix);

    std::printf("%-18s %18s %14s %16s\n", "configuration",
                "weighted speedup", "max slowdown", "slowest tenant");
    for (const Variant &variant : variants) {
        SystemConfig cfg = SystemConfig::skylakeScaled();
        cfg.withSched(variant.sched).withTempo(variant.tempo);
        System system(cfg, makeMix(tenants, cfg.seed));
        const RunResult result = system.run(refs_per_app);

        // Identify the worst-slowed tenant by name.
        std::size_t worst = 0;
        double worst_slowdown = 0;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            const double slowdown =
                static_cast<double>(result.appFinish[i])
                / static_cast<double>(alone[i]);
            if (slowdown > worst_slowdown) {
                worst_slowdown = slowdown;
                worst = i;
            }
        }
        std::printf("%-18s %18.3f %14.2fx %16s\n", variant.label,
                    weightedSpeedup(result.appFinish, alone),
                    maxSlowdown(result.appFinish, alone),
                    tenants[worst].c_str());
    }

    std::printf("\nHigher weighted speedup = better throughput; lower "
                "max slowdown = better fairness.\n");
    return 0;
}
